(** Compiled knowledge bases — the one engine path.

    Everything an engine derives from a KB alone — its conjunct split,
    statistical statements, unary atom universe and ε-constraints, and
    most expensively the entropy-maximising point at each tolerance of
    the τ̄-schedule — is a function of the KB, not of the query
    (Grove–Halpern–Koller: the maxent point over atom proportions is a
    function of the constraints alone). Every engine therefore reads
    it from one per-KB artifact: a serve/batch session shares one
    artifact across all queries against its KB, and a one-off query
    builds a throwaway artifact of its own.

    [compile kb] does the cheap syntactic pass and returns a {!t}
    holding:

    - its split conjuncts and the pre-indexed statistical statements
      the rules engine matches reference classes against,
    - the two query-independent eventual-inconsistency pre-checks,
    - when the KB sits in the fully-supported unary fragment: the
      analysed {!Rw_unary.Analysis.parts}, the per-constant atom
      bitsets, and memo tables for maxent solves and unary
      profile-counting tables — empty until an engine first asks,
    - the KB's vocabulary (reused when merging with a query's).

    Laziness: [compile] solves nothing. Each (tolerance) solve and
    each (size, tolerance) profile table is computed on first demand
    and memoised; since a solve depends only on the KB and the
    tolerance, answers do not depend on which query filled a cell.

    Thread-safety: one artifact may be used concurrently from many
    pool domains. The memo tables are mutex-guarded and fill each
    (tolerance / size) cell exactly once.

    Soundness: reuse is gated on structural equality of the per-query
    analysis against the compiled one, so engines can always ask; an
    incompatible query gets an unmemoised solve (or no table) and the
    same answer. *)

open Rw_logic
open Rw_unary

type t

val compile : Syntax.formula -> t
(** The compilation pass: conjunct split, statistical index,
    inconsistency pre-checks, unary analysis and vocabulary. Performs
    no maxent solve — those fill the memo on first demand. *)

val default_schedule : Tolerance.t list
(** The τ̄-schedule the maxent engine walks by default, and the one
    {!entropy_profile} reports on. *)

val update : t -> Syntax.formula -> t * bool
(** [update old kb] compiles an artifact for [kb] — a small delta of
    [old]'s KB — reusing [old] where the delta leaves it undisturbed.
    The conjunct split, statistical index and inconsistency
    pre-checks are always recomputed (cheap, purely syntactic). When
    both KBs are in the unary fragment and pose the {e same
    optimisation problem} — equal atom universe, universal and
    statistical constraints; only the evidence about individuals
    changed — the solve and profile-table memos are carried over,
    which is sound because the solver never reads the constant facts.
    Returns [(artifact, carried)]; when the delta disturbs the problem
    the result is exactly [compile kb] ([carried = false]). The old
    artifact is left untouched and remains valid for the old KB. *)

(** {1 Precomputed KB structure} *)

val kb : t -> Syntax.formula

val matches : t -> Syntax.formula -> bool
(** Structural identity with the compiled KB. Canonical digests
    identify KBs only up to alpha/AC renaming, so cache layers must
    verify this before reusing an artifact. *)

val vocab : t -> Vocab.t

val stat_index : t -> (Syntax.formula * Stat.t option) list
(** Each conjunct paired with its recognised statistical reading, in
    conjunct order — the rules engine's candidate structure. *)

val ground_inconsistent : t -> bool
val degenerate_inconsistent : t -> bool

(** {1 Solver reuse} *)

val solve : t -> Analysis.parts -> Tolerance.t -> Solver.solution
(** Memoised {!Rw_unary.Solver.solve} when the per-query analysis
    describes the same optimisation problem as the compiled one (same
    universe, universals, statisticals and constant facts; nothing
    unsupported), an unmemoised solve otherwise. Cached
    [Infeasible]/[Unsupported] outcomes are re-raised, so failure
    behaviour does not depend on whether the cell was filled. *)

val profile_table :
  t -> Analysis.parts -> n:int -> tol:Tolerance.t -> Profile.table option
(** Memoised {!Rw_unary.Profile.stat_table} for a domain size and
    tolerance; [None] when incompatible or the table is not
    precomputable (statistics mentioning constants, or too many
    satisfying profiles to store). *)

(** {1 Observability} *)

val compile_ms : t -> float

val use : t -> int
(** Record one consumption of the artifact and return the {e previous}
    use count — 0 means this answer was the artifact's first consumer
    (it filled the memo), >0 means it could reuse earlier solves. *)

val entropy_profile : t -> (Tolerance.t * float option) list
(** Walk {!default_schedule} through the solve memo — solving every
    tolerance no query has asked for yet — and return the entropy of
    the maxent point at each ([None] where infeasible). [[]] outside
    the unary fragment. *)

type stats = {
  digest : string;
      (** {!Rw_logic.Canonical.digest} of the KB, computed by {!stats}:
          the artifact itself never hashes its KB (service caches key
          on the digest they already hold) *)
  conjunct_count : int;
  stat_count : int;
  atoms : int option;
  constants : int;
  presolved : int;
  infeasible : int;
  tables : int;
  solve_hits : int;
  solve_misses : int;
  table_hits : int;
  table_misses : int;
  compile_ms : float;
  uses : int;
}

val stats : t -> stats
(** A snapshot. [presolved] / [infeasible] count the solve outcomes
    memoised so far (both 0 right after {!compile}); [tables] counts
    memoised profile tables. *)
