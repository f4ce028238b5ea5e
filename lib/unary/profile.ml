(** Exact finite-[N] world counting for unary knowledge bases, by
    aggregation over atom-count profiles.

    For a unary vocabulary, a world of size [N] is determined up to
    isomorphism by (a) how many domain elements realise each atom and
    (b) which atom each named constant falls in; a formula without
    equality cannot distinguish elements of the same atom, so the exact
    count [#worlds_N^τ̄(φ)] is

    [ Σ_{counts} multinomial(N; counts) · Σ_{assignments} Π_c n_{atom(c)} · [profile ⊨ φ] ]

    This engine therefore computes [Pr_N^τ̄(φ | KB)] *exactly* (up to
    float rounding; weights are handled in log space) at domain sizes
    far beyond exhaustive enumeration — hundreds instead of a handful —
    which is what lets us watch the [N → ∞] limit converge.

    Fragment: unary predicates, constants, no equality, no non-constant
    function symbols. *)

open Rw_prelude
open Rw_logic
open Syntax

exception Unsupported of string

type profile = {
  universe : Atoms.universe;
  n : int;
  counts : int array;  (** per-atom element counts, summing to [n] *)
  const_atoms : (string * int) list;  (** atom of each named constant *)
}

(* ------------------------------------------------------------------ *)
(* Evaluation over profiles                                           *)
(* ------------------------------------------------------------------ *)

type prop_value = Value of float | Undefined

(* env maps variables to atom indices. *)
let atom_of_term prof env = function
  | Var x -> (
    match List.assoc_opt x env with
    | Some a -> a
    | None -> raise (Unsupported (Printf.sprintf "unbound variable %s" x)))
  | Fn (c, []) -> (
    match List.assoc_opt c prof.const_atoms with
    | Some a -> a
    | None -> raise (Unsupported (Printf.sprintf "unknown constant %s" c)))
  | Fn (f, _) -> raise (Unsupported (Printf.sprintf "function symbol %s" f))

let rec eval_formula prof tol env = function
  | True -> true
  | False -> false
  | Pred (p, [ t ]) ->
    Atoms.atom_satisfies prof.universe (atom_of_term prof env t) p
  | Pred (p, _) -> raise (Unsupported (Printf.sprintf "non-unary predicate %s" p))
  | Eq _ -> raise (Unsupported "equality (profile engine)")
  | Not f -> not (eval_formula prof tol env f)
  | And (f, g) -> eval_formula prof tol env f && eval_formula prof tol env g
  | Or (f, g) -> eval_formula prof tol env f || eval_formula prof tol env g
  | Implies (f, g) -> (not (eval_formula prof tol env f)) || eval_formula prof tol env g
  | Iff (f, g) -> eval_formula prof tol env f = eval_formula prof tol env g
  | Forall (x, f) ->
    let na = Atoms.num_atoms prof.universe in
    let rec go a =
      a >= na
      || ((prof.counts.(a) = 0 || eval_formula prof tol ((x, a) :: env) f) && go (a + 1))
    in
    go 0
  | Exists (x, f) ->
    let na = Atoms.num_atoms prof.universe in
    let rec go a =
      a < na
      && ((prof.counts.(a) > 0 && eval_formula prof tol ((x, a) :: env) f) || go (a + 1))
    in
    go 0
  | Compare (z1, cmp, z2) -> (
    match (eval_prop prof tol env z1, eval_prop prof tol env z2) with
    | Value a, Value b -> (
      match cmp with
      | Approx_eq i -> Float.abs (a -. b) <= Tolerance.get tol i
      | Approx_le i -> a <= b +. Tolerance.get tol i)
    | Undefined, _ | _, Undefined -> true)

(* Weighted count of tuples over [xs] satisfying [f]: sum over atom
   tuples of the product of atom counts. *)
and tuple_weight prof tol env xs f =
  let na = Atoms.num_atoms prof.universe in
  let rec go xs env acc_weight total =
    match xs with
    | [] -> if eval_formula prof tol env f then total +. acc_weight else total
    | x :: rest ->
      let total = ref total in
      for a = 0 to na - 1 do
        if prof.counts.(a) > 0 then
          total :=
            go rest ((x, a) :: env)
              (acc_weight *. float_of_int prof.counts.(a))
              !total
      done;
      !total
  in
  go xs env 1.0 0.0

and eval_prop prof tol env = function
  | Num x -> Value x
  | Prop (f, xs) ->
    let k = List.length xs in
    let total = float_of_int prof.n ** float_of_int k in
    Value (tuple_weight prof tol env xs f /. total)
  | Cond (f, g, xs) ->
    let wg = tuple_weight prof tol env xs g in
    if wg = 0.0 then Undefined
    else Value (tuple_weight prof tol env xs (And (f, g)) /. wg)
  | Add (z1, z2) -> (
    match (eval_prop prof tol env z1, eval_prop prof tol env z2) with
    | Value a, Value b -> Value (a +. b)
    | _ -> Undefined)
  | Mul (z1, z2) -> (
    match (eval_prop prof tol env z1, eval_prop prof tol env z2) with
    | Value a, Value b -> Value (a *. b)
    | _ -> Undefined)

(** [sat prof tol f] decides satisfaction of a sentence by every world
    with this profile. *)
let sat prof tol f = eval_formula prof tol [] f

(* ------------------------------------------------------------------ *)
(* Precomputed stat-satisfying profile tables                         *)
(* ------------------------------------------------------------------ *)

(* When the KB's statistical conjuncts mention no constants, the set of
   count profiles satisfying them — and each profile's multinomial
   weight — depends only on (parts, n, τ̄), not on the query. A compiled
   KB builds this table once per (n, τ̄) and every query then iterates
   the (usually tiny) satisfying subset instead of all compositions.

   The stored weight deliberately excludes [log_prior]: priors are
   per-query hooks, added at consumption so results stay bit-identical
   with the from-scratch path. *)

type table = {
  t_n : int;  (** domain size the table was enumerated for *)
  rows : (int array * float) array;
      (** satisfying profiles in composition order, with
          [log_multinomial n counts] *)
}

let table_size t = Array.length t.rows

(** [stat_table parts ~n ~tol] enumerates the stat-satisfying profiles,
    or returns [None] when the table would be unsound (statistics
    mentioning constants make satisfaction assignment-dependent) or too
    large to be worth storing ([max_rows], default 200k). *)
let stat_table ?(max_rows = 200_000) (parts : Analysis.parts) ~n ~tol =
  if not (Analysis.fully_supported parts) then None
  else begin
    let u = parts.Analysis.universe in
    let na = Atoms.num_atoms u in
    let stat = Analysis.statistical_formula parts in
    if Syntax.constants stat <> [] then None
    else begin
      let rows = ref [] in
      let count = ref 0 in
      let capped = ref false in
      (try
         Listx.iter_compositions n na (fun counts ->
             Rw_pool.Budget.check ();
             let prof = { universe = u; n; counts; const_atoms = [] } in
             if sat prof tol stat then begin
               incr count;
               if !count > max_rows then begin
                 capped := true;
                 raise Exit
               end;
               (* [iter_compositions] reuses its buffer: copy. *)
               rows :=
                 ( Array.copy counts,
                   Logspace.log_multinomial n (Array.to_list counts) )
                 :: !rows
             end)
       with
      | Exit -> ()
      | Unsupported _ ->
        capped := true);
      if !capped then None
      else Some { t_n = n; rows = Array.of_list (List.rev !rows) }
    end
  end

(* ------------------------------------------------------------------ *)
(* Exact conditional probability at domain size N                     *)
(* ------------------------------------------------------------------ *)

(* Iterate over assignments of the listed constants to atoms with
   non-zero count; call [k assignment log_weight]. *)
let iter_assignments universe counts consts k =
  let na = Atoms.num_atoms universe in
  let rec go consts acc log_w =
    match consts with
    | [] -> k (List.rev acc) log_w
    | c :: rest ->
      for a = 0 to na - 1 do
        if counts.(a) > 0 then
          go rest ((c, a) :: acc) (log_w +. Float.log (float_of_int counts.(a)))
      done
  in
  go consts [] 0.0

(** [pr_n ?log_prior parts ~query ~n ~tol] is the exact
    [Pr_N^τ̄(query | KB)], or [None] when [#worlds_N^τ̄(KB) = 0].

    [log_prior] re-weights each atom-count profile (log domain) —
    the uniform prior of the random-worlds method when omitted. This
    hook is what implements prior *variants* such as random
    propensities (Section 7.3, {!Propensity}): the method itself never
    re-weights.

    [table] — a {!stat_table} for the same (parts, n, tol) — replaces
    the full composition sweep with its precomputed stat-satisfying
    rows. Per-assignment evaluation and accumulation order are
    unchanged, so results are bit-identical.

    @raise Unsupported when KB or query leave the engine's fragment
    (equality, non-unary predicates, function symbols). *)
let pr_n ?(log_prior = fun _ -> 0.0) ?table (parts : Analysis.parts) ~query ~n
    ~tol =
  if not (Analysis.fully_supported parts) then
    raise (Unsupported "KB has unsupported conjuncts")
  else begin
    let u = parts.Analysis.universe in
    let na = Atoms.num_atoms u in
    let stat = Analysis.statistical_formula parts in
    let facts = Analysis.facts_formula parts in
    let consts =
      Listx.sort_uniq_strings (Analysis.constants parts @ Syntax.constants query)
    in
    (* Statistical conjuncts normally mention no constants, letting us
       evaluate them once per count profile rather than once per
       constant assignment. *)
    let stat_mentions_consts = Syntax.constants stat <> [] in
    let log_kb = ref Logspace.zero and log_kb_q = ref Logspace.zero in
    let eval_profile counts log_multi =
      let prof = { universe = u; n; counts; const_atoms = [] } in
      iter_assignments u counts consts (fun assignment log_w ->
          let prof = { prof with const_atoms = assignment } in
          let kb_ok =
            sat prof tol facts
            && ((not stat_mentions_consts) || sat prof tol stat)
          in
          if kb_ok then begin
            let weight = log_multi +. log_w in
            log_kb := Logspace.add !log_kb weight;
            if sat prof tol query then
              log_kb_q := Logspace.add !log_kb_q weight
          end)
    in
    (match table with
    | Some t
      when t.t_n = n
           && (not stat_mentions_consts)
           && (Array.length t.rows = 0 || Array.length (fst t.rows.(0)) = na)
      ->
      Array.iter
        (fun (counts, lm) ->
          Rw_pool.Budget.check ();
          eval_profile counts (lm +. log_prior counts))
        t.rows
    | _ ->
      Listx.iter_compositions n na (fun counts ->
          (* Budget poll per profile: compositions number in the millions
             for wide universes, and a poll is the only way a budget
             can stop them. *)
          Rw_pool.Budget.check ();
          let prof = { universe = u; n; counts; const_atoms = [] } in
          let stat_ok =
            if stat_mentions_consts then true else sat prof tol stat
          in
          if stat_ok then
            eval_profile counts
              (Logspace.log_multinomial n (Array.to_list counts)
              +. log_prior counts)));
    if Logspace.is_zero !log_kb then None
    else Some (Logspace.ratio !log_kb_q !log_kb)
  end

(** [consistent_n parts ~n ~tol] — does the KB have any world of size
    [n] at tolerance [tol]? *)
let consistent_n parts ~n ~tol =
  match pr_n parts ~query:True ~n ~tol with Some _ -> true | None -> false

(** [cost_estimate parts ~n] — approximate number of (profile ×
    assignment) evaluations, to let callers pick a feasible [n]. *)
let cost_estimate (parts : Analysis.parts) ~n =
  let na = Atoms.num_atoms parts.Analysis.universe in
  let consts = List.length (Analysis.constants parts) in
  Listx.count_compositions n na *. (float_of_int na ** float_of_int consts)
