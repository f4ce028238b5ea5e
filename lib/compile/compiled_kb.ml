(** Compiled knowledge bases — see the interface for the design. *)

open Rw_logic
open Rw_unary
open Syntax

(* ------------------------------------------------------------------ *)
(* Query-independent inconsistency pre-checks                         *)
(* ------------------------------------------------------------------ *)

(* Every rules-engine theorem presupposes an (eventually) consistent
   KB; these two sound checks depend only on the KB, so they are
   evaluated once per compile and stored as booleans. *)

let is_ground f = Syntax.Sset.is_empty (Syntax.all_vars_formula f)

(* A complementary pair of ground literals, or a ground [t ≠ t],
   admits no worlds at any domain size. *)
let ground_contradiction kb_conjuncts =
  let lits =
    List.filter_map
      (fun f ->
        match f with
        | Pred _ when is_ground f -> Some (true, f)
        | Not (Pred _ as a) when is_ground a -> Some (false, a)
        | _ -> None)
      kb_conjuncts
  in
  List.exists
    (fun (sign, a) ->
      List.exists (fun (sign', a') -> sign <> sign' && a = a') lits)
    lits
  || List.exists
       (function Not (Eq (t, t')) -> t = t' | _ -> false)
       kb_conjuncts

(* A self-conditional statistic [||φ | ψ|| ⪯ v] with φ ≡ ψ and v < 1 is
   satisfiable only by worlds where ψ is empty; a further ground fact
   ψ(c) then leaves no worlds beyond the first few tolerance steps. *)
let degenerate_self_conditional indexed =
  let kb_conjuncts = List.map fst indexed in
  let stats = Stat.with_complements (List.filter_map snd indexed) in
  let consts =
    Rw_prelude.Listx.sort_uniq_strings
      (List.concat_map Syntax.constants kb_conjuncts)
  in
  List.exists
    (fun (s : Stat.t) ->
      Rw_prelude.Interval.hi s.Stat.bounds < 1.0 -. 1e-9
      && (Unify.alpha_ac_equal s.Stat.target s.Stat.ref_class
         || Canonical.equivalent s.Stat.target s.Stat.ref_class)
      &&
      match s.Stat.subscript with
      | [ x ] ->
        List.exists
          (fun c ->
            let psi_c = subst [ (x, Fn (c, [])) ] s.Stat.ref_class in
            List.exists (fun g -> Unify.alpha_ac_equal g psi_c) kb_conjuncts)
          consts
      | _ -> false)
    stats

(* ------------------------------------------------------------------ *)
(* The artifact                                                       *)
(* ------------------------------------------------------------------ *)

type unary_data = {
  parts : Analysis.parts;
  fact_atoms : (string * Atoms.Set.t) list;
  m : Mutex.t;
      (** orders solver/table memo fills across pool domains; held for
          the duration of a solve so concurrent queries compile each
          (KB, τ̄) cell exactly once *)
  solutions : (string, (Solver.solution, exn) result) Hashtbl.t;
  tables : (string, Profile.table option) Hashtbl.t;
}

type t = {
  kb : Syntax.formula;
  vocab : Vocab.t;
  conjuncts : Syntax.formula list;
  stat_index : (Syntax.formula * Stat.t option) list;
  ground_inconsistent : bool;
  degenerate_inconsistent : bool;
  unary : unary_data option;
  compile_ms : float;
  uses : int Atomic.t;
  solve_hits : int Atomic.t;
  solve_misses : int Atomic.t;
  table_hits : int Atomic.t;
  table_misses : int Atomic.t;
}

(* The maxent engine's default τ̄-schedule lives here (the engine
   aliases it) so [entropy_profile] and [rw compile] describe exactly
   the tolerances the engine will ask for. *)
let default_schedule =
  Tolerance.schedule ~factor:0.5 ~steps:6 (Tolerance.uniform 0.02)

(* Deterministic tolerance fingerprint: hex floats so distinct scales
   never collide through decimal rounding. *)
let tol_key (tol : Tolerance.t) =
  let pairs ps =
    String.concat ","
      (List.map
         (fun (i, v) -> Printf.sprintf "%d:%h" i v)
         (List.sort Stdlib.compare ps))
  in
  Printf.sprintf "%h[w%s][p%s]" tol.Tolerance.scale
    (pairs tol.Tolerance.weights)
    (pairs tol.Tolerance.powers)

(* A fresh per-query analysis can reuse the compiled solver state only
   when it describes the same optimisation problem: same atom universe
   (the query introduced no new predicates) and the same classified
   conjuncts. Structural equality keeps this sound for any caller —
   incompatible parts silently fall back to an unmemoised solve. *)
let compatible_parts (u : unary_data) (parts : Analysis.parts) =
  parts.Analysis.unsupported = []
  && Atoms.predicates parts.Analysis.universe
     = Atoms.predicates u.parts.Analysis.universe
  && parts.Analysis.universals = u.parts.Analysis.universals
  && parts.Analysis.statisticals = u.parts.Analysis.statisticals
  && parts.Analysis.const_facts = u.parts.Analysis.const_facts

(* One memoised maxent solve. Expected exceptions (infeasible KB at
   this tolerance, non-linear fragment) are outcomes too: they are
   cached and re-raised, so a memo hit raises exactly where the solve
   itself would. Anything else (budget expiry, stack overflow)
   propagates uncached, and [Mutex.protect] releases the lock. *)
let solve_memo t (u : unary_data) tol =
  let key = tol_key tol in
  Mutex.protect u.m (fun () ->
      match Hashtbl.find_opt u.solutions key with
      | Some r ->
        Atomic.incr t.solve_hits;
        r
      | None ->
        Atomic.incr t.solve_misses;
        let r =
          match Solver.solve u.parts tol with
          | s -> Ok s
          | exception ((Solver.Infeasible _ | Constraints.Unsupported _) as e)
            ->
            Error e
        in
        Hashtbl.replace u.solutions key r;
        r)

let solve t parts tol =
  match t.unary with
  | Some u when compatible_parts u parts -> (
    match solve_memo t u tol with Ok s -> s | Error e -> raise e)
  | _ -> Solver.solve parts tol

let profile_table t parts ~n ~tol =
  match t.unary with
  | None -> None
  | Some u when not (compatible_parts u parts) -> None
  | Some u ->
    let key = Printf.sprintf "%d|%s" n (tol_key tol) in
    Mutex.protect u.m (fun () ->
        match Hashtbl.find_opt u.tables key with
        | Some tbl ->
          Atomic.incr t.table_hits;
          tbl
        | None ->
          Atomic.incr t.table_misses;
          let tbl = Profile.stat_table u.parts ~n ~tol in
          Hashtbl.replace u.tables key tbl;
          tbl)

(* ------------------------------------------------------------------ *)
(* Compilation                                                        *)
(* ------------------------------------------------------------------ *)

(* Syntactic work only: nothing is solved here. The maxent point at
   each tolerance is a function of the KB alone, so [solve] fills the
   memo on first demand and every later query sharing the artifact
   reads it; the answer cannot depend on which query asked first. *)
let compile kb =
  let t0 = Rw_prelude.Clock.now () in
  let vocab = Vocab.of_formula kb in
  let conjuncts = Analysis.split_conjuncts kb in
  let stat_index = List.map (fun f -> (f, Stat.of_conjunct f)) conjuncts in
  let ground_inconsistent = ground_contradiction conjuncts in
  let degenerate_inconsistent = degenerate_self_conditional stat_index in
  let unary =
    let parts = Analysis.analyze kb in
    if not (Analysis.fully_supported parts) then None
    else
      Some
        {
          parts;
          fact_atoms =
            List.map
              (fun c -> (c, Analysis.fact_atoms parts c))
              (Analysis.constants parts);
          m = Mutex.create ();
          solutions = Hashtbl.create 16;
          tables = Hashtbl.create 16;
        }
  in
  (* Timed after every field is built: record fields evaluate in an
     unspecified order. *)
  let compile_ms = (Rw_prelude.Clock.now () -. t0) *. 1000.0 in
  {
    kb;
    vocab;
    conjuncts;
    stat_index;
    ground_inconsistent;
    degenerate_inconsistent;
    unary;
    compile_ms;
    uses = Atomic.make 0;
    solve_hits = Atomic.make 0;
    solve_misses = Atomic.make 0;
    table_hits = Atomic.make 0;
    table_misses = Atomic.make 0;
  }

(* ------------------------------------------------------------------ *)
(* Incremental update                                                 *)
(* ------------------------------------------------------------------ *)

(* The entropy-maximising solve reads only the optimisation problem —
   atom universe, universal constraints, statistical constraints
   ({!Constraints.of_parts} never looks at [const_facts]) — and the
   profile tables likewise count proportions, not individuals. So a
   delta that only adds, removes or rewords {e evidence} (ground
   boolean facts about constants, over the existing predicates) poses
   the identical problem and the memo contents stay exact. *)
let same_solve_problem (a : Analysis.parts) (b : Analysis.parts) =
  Atoms.predicates a.Analysis.universe = Atoms.predicates b.Analysis.universe
  && a.Analysis.universals = b.Analysis.universals
  && a.Analysis.statisticals = b.Analysis.statisticals

let update old kb =
  let t = compile kb in
  match (old.unary, t.unary) with
  | Some u, Some u' when same_solve_problem u.parts u'.parts ->
    (* The new artifact keeps its own conjunct split,
       statistical index, pre-checks and constant facts; only the solve
       and profile-table memos are carried over verbatim. *)
    let solutions, tables =
      Mutex.protect u.m (fun () ->
          (Hashtbl.copy u.solutions, Hashtbl.copy u.tables))
    in
    ( {
        t with
        unary = Some { u' with solutions; tables };
        (* Seed [uses] from the predecessor: nobody re-paid a solve, so
           the first consumer of the carried artifact reports "reused",
           not "fresh-solve". *)
        uses = Atomic.make (max 1 (Atomic.get old.uses));
      },
      true )
  | _ -> (t, false)

(* ------------------------------------------------------------------ *)
(* Accessors and observability                                        *)
(* ------------------------------------------------------------------ *)

let kb t = t.kb

(* Canonical digests identify KBs up to alpha/AC renaming, so two
   structurally different formulas can share one digest. Consumers gate
   on structural identity (physical fast path) before reusing. *)
let matches t kb = t.kb == kb || t.kb = kb
let vocab t = t.vocab
let stat_index t = t.stat_index
let ground_inconsistent t = t.ground_inconsistent
let degenerate_inconsistent t = t.degenerate_inconsistent
let compile_ms t = t.compile_ms
let use t = Atomic.fetch_and_add t.uses 1
let fact_atom_sets t = match t.unary with Some u -> u.fact_atoms | None -> []

let atom_count t =
  Option.map (fun u -> Atoms.num_atoms u.parts.Analysis.universe) t.unary

(* The artifact's entropy profile over the default schedule, for
   [rw compile] inspection and tests: walks the schedule through the
   memo, so it also fills whatever no query has asked for yet. *)
let entropy_profile t =
  match t.unary with
  | None -> []
  | Some u ->
    List.map
      (fun tol ->
        match solve_memo t u tol with
        | Ok s -> (tol, Some s.Solver.entropy)
        | Error _ -> (tol, None))
      default_schedule

type stats = {
  digest : string;
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

let stats t =
  let presolved, infeasible, tables =
    match t.unary with
    | None -> (0, 0, 0)
    | Some u ->
      Mutex.protect u.m (fun () ->
          let ok, bad =
            Hashtbl.fold
              (fun _ r (ok, bad) ->
                match r with Ok _ -> (ok + 1, bad) | Error _ -> (ok, bad + 1))
              u.solutions (0, 0)
          in
          (ok, bad, Hashtbl.length u.tables))
  in
  {
    digest = Canonical.digest t.kb;
    conjunct_count = List.length t.conjuncts;
    stat_count = List.length (List.filter_map snd t.stat_index);
    atoms = atom_count t;
    constants = List.length (fact_atom_sets t);
    presolved;
    infeasible;
    tables;
    solve_hits = Atomic.get t.solve_hits;
    solve_misses = Atomic.get t.solve_misses;
    table_hits = Atomic.get t.table_hits;
    table_misses = Atomic.get t.table_misses;
    compile_ms = t.compile_ms;
    uses = Atomic.get t.uses;
  }
