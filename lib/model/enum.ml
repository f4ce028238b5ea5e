(** Exhaustive enumeration of [W_N(Φ)] — every first-order model of a
    vocabulary over [{0, …, N−1}].

    This engine implements the random-worlds definition *literally* at
    a fixed domain size, and is the ground truth the faster engines are
    validated against. The number of worlds is

    [ Π_{P/r ∈ preds} 2^(N^r) · Π_{f/r ∈ funcs} N^(N^r) ]

    so it is only usable for small [N] and small vocabularies; the
    [max_log10_worlds] guard refuses obviously hopeless enumerations
    rather than spinning forever. *)

open Rw_bignat
open Rw_logic

(** [count_worlds vocab n] is the exact number of worlds [|W_N(Φ)|]. *)
let count_worlds vocab n =
  let pred_count =
    List.fold_left
      (fun acc (_, arity) -> Bignat.mul acc (Bignat.pow_int 2 (World.table_size n arity)))
      Bignat.one vocab.Vocab.preds
  in
  List.fold_left
    (fun acc (_, arity) -> Bignat.mul acc (Bignat.pow_int n (World.table_size n arity)))
    pred_count vocab.Vocab.funcs

(** [log10_world_count vocab n] estimates the decimal magnitude of the
    enumeration, for the guard. *)
let log10_world_count vocab n =
  let log10_2 = Float.log10 2.0 in
  let preds =
    List.fold_left
      (fun acc (_, arity) -> acc +. (float_of_int (World.table_size n arity) *. log10_2))
      0.0 vocab.Vocab.preds
  in
  List.fold_left
    (fun acc (_, arity) ->
      acc +. (float_of_int (World.table_size n arity) *. Float.log10 (float_of_int n)))
    preds vocab.Vocab.funcs

exception Too_many_worlds of float
(** Raised (with the estimated log10 world count) when enumeration
    would be hopeless. *)

(** [iter_worlds ?max_log10_worlds vocab n f] calls [f] once per world
    in [W_N(Φ)]. The world value passed to [f] is reused between calls
    (its tables are mutated in place); [f] must not retain it — use
    {!World.copy} if needed.

    @raise Too_many_worlds when the enumeration exceeds the guard
    (default 8, i.e. 10^8 worlds). *)
let iter_worlds ?(max_log10_worlds = 8.0) vocab n f =
  let magnitude = log10_world_count vocab n in
  if magnitude > max_log10_worlds then raise (Too_many_worlds magnitude)
  else begin
    let w = World.create vocab n in
    (* Collect all mutable cells as (table, cardinality) pairs: bool
       tables count in base 2, function tables in base n. *)
    let cells =
      List.concat_map
        (fun (p, arity) ->
          let _, table = Hashtbl.find w.World.pred_tables p in
          List.map (fun i -> `Pred (table, i)) (Rw_prelude.Listx.range 0 (World.table_size n arity)))
        vocab.Vocab.preds
      @ List.concat_map
          (fun (g, arity) ->
            let _, table = Hashtbl.find w.World.func_tables g in
            List.map (fun i -> `Func (table, i)) (Rw_prelude.Listx.range 0 (World.table_size n arity)))
          vocab.Vocab.funcs
    in
    (* Odometer recursion over the cells. The per-world budget poll
       keeps service deadlines enforceable inside multi-million-world
       enumerations, on the main domain and pool workers alike. *)
    let rec go = function
      | [] ->
        Rw_pool.Budget.check ();
        f w
      | `Pred (table, i) :: rest ->
        table.(i) <- false;
        go rest;
        table.(i) <- true;
        go rest
      | `Func (table, i) :: rest ->
        for v = 0 to n - 1 do
          table.(i) <- v;
          go rest
        done
    in
    go cells
  end

(** [count_sat ?max_log10_worlds vocab n tol f] is
    [#worlds_N^τ̄(f)] — the number of worlds satisfying the sentence
    [f] — as an exact natural number. *)
let count_sat ?max_log10_worlds vocab n tol f =
  if not (Vocab.covers vocab f) then
    invalid_arg "Enum.count_sat: vocabulary does not cover formula"
  else begin
    let count = ref 0 in
    iter_worlds ?max_log10_worlds vocab n (fun w ->
        if Eval.sat w tol f then incr count);
    Bignat.of_int !count
  end

(** [count_sat2 vocab n tol f g] counts worlds satisfying [f] and
    worlds satisfying [g] in a single enumeration pass — the shape
    needed for a conditional probability [#(φ∧KB) / #KB]. *)
let count_sat2 ?max_log10_worlds vocab n tol f g =
  if not (Vocab.covers vocab f && Vocab.covers vocab g) then
    invalid_arg "Enum.count_sat2: vocabulary does not cover formulas"
  else begin
    let cf = ref 0 and cg = ref 0 in
    iter_worlds ?max_log10_worlds vocab n (fun w ->
        if Eval.sat w tol f then incr cf;
        if Eval.sat w tol g then incr cg);
    (Bignat.of_int !cf, Bignat.of_int !cg)
  end

(** [find_world vocab n tol f] returns some world satisfying [f], if
    one exists at size [n] — useful for satisfiability checks and
    counterexamples in tests. The returned world is a private copy. *)
let find_world ?max_log10_worlds vocab n tol f =
  let found = ref None in
  (try
     iter_worlds ?max_log10_worlds vocab n (fun w ->
         if Eval.sat w tol f then begin
           found := Some (World.copy w);
           raise Exit
         end)
   with Exit -> ());
  !found
