(** Canonical forms and digests for [L≈] formulas. See the interface
    for the normalization pipeline; this file implements the alpha/AC
    pass that runs after {!Simplify.simplify} and {!Simplify.nnf}. *)

open Syntax

(* Bound variables are renamed positionally: the binder at nesting
   depth [d] (counting every enclosing quantifier and subscript
   variable) binds [#d]. The name depends only on depth, never on
   sibling order, so sorting the operands of a flattened conjunction
   cannot perturb the names inside them. '#' is outside the lexer's
   identifier alphabet, which keeps canonical forms from being
   mistaken for parseable input. *)
let bound_name depth = Printf.sprintf "#%d" depth

(* Permutations of a small list (subscripts have 1–3 variables in
   practice). Assumes distinct elements; callers guard. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map (fun p -> x :: p) (permutations (List.filter (fun y -> y <> x) l)))
      l

let has_duplicates xs = List.length (List.sort_uniq Stdlib.compare xs) <> List.length xs

let flatten_and f =
  let rec go acc = function And (a, b) -> go (go acc b) a | f -> f :: acc in
  go [] f

let rec flatten_or = function
  | Or (a, b) -> flatten_or a @ flatten_or b
  | f -> [ f ]

let rec flatten_add = function
  | Add (a, b) -> flatten_add a @ flatten_add b
  | z -> [ z ]

let rec flatten_mul = function
  | Mul (a, b) -> flatten_mul a @ flatten_mul b
  | z -> [ z ]

(* Sorting key: the deterministic pretty-printing of the (already
   canonical) operand. Comparing rendered forms rather than ASTs keeps
   the order stable under any future reshuffling of the constructor
   declaration order in [Syntax]. *)
let fkey = Pretty.to_string
let pkey = Pretty.proportion_to_string
let tkey = Pretty.term_to_string

let sort_uniq_by key xs =
  List.sort_uniq (fun a b -> Stdlib.compare (key a) (key b)) xs

let rebuild_left join = function
  | [] -> invalid_arg "Canonical.rebuild_left: empty"
  | x :: rest -> List.fold_left (fun acc y -> join acc y) x rest

let rec canon_term env = function
  | Var x -> (
    match List.assoc_opt x env with Some x' -> Var x' | None -> Var x)
  | Fn (f, args) -> Fn (f, List.map (canon_term env) args)

let rec canon_f env depth f =
  match f with
  | True | False -> f
  | Pred (p, args) -> Pred (p, List.map (canon_term env) args)
  | Eq (t1, t2) ->
    let a = canon_term env t1 and b = canon_term env t2 in
    if tkey a <= tkey b then Eq (a, b) else Eq (b, a)
  | Not g -> Not (canon_f env depth g)
  | And _ ->
    let parts = List.map (canon_f env depth) (flatten_and f) in
    let parts = sort_uniq_by fkey (List.concat_map flatten_and parts) in
    rebuild_left (fun a b -> And (a, b)) parts
  | Or _ ->
    let parts = List.map (canon_f env depth) (flatten_or f) in
    let parts = sort_uniq_by fkey (List.concat_map flatten_or parts) in
    rebuild_left (fun a b -> Or (a, b)) parts
  | Implies (g, h) ->
    (* Unreachable after NNF, kept total for standalone use. *)
    Implies (canon_f env depth g, canon_f env depth h)
  | Iff (g, h) ->
    let a = canon_f env depth g and b = canon_f env depth h in
    if fkey a <= fkey b then Iff (a, b) else Iff (b, a)
  | Forall (x, g) ->
    let x' = bound_name depth in
    Forall (x', canon_f ((x, x') :: env) (depth + 1) g)
  | Exists (x, g) ->
    let x' = bound_name depth in
    Exists (x', canon_f ((x, x') :: env) (depth + 1) g)
  | Compare (z1, c, z2) -> (
    let a = canon_p env depth z1 and b = canon_p env depth z2 in
    match c with
    | Approx_eq _ ->
      (* ζ ≈_i ζ' ⟺ ζ' ≈_i ζ: orient the operands. *)
      if pkey a <= pkey b then Compare (a, c, b) else Compare (b, c, a)
    | Approx_le _ -> Compare (a, c, b))

and canon_p env depth z =
  match z with
  | Num _ -> z
  | Add _ ->
    let parts = List.map (canon_p env depth) (flatten_add z) in
    let parts = List.sort (fun a b -> Stdlib.compare (pkey a) (pkey b))
        (List.concat_map flatten_add parts)
    in
    rebuild_left (fun a b -> Add (a, b)) parts
  | Mul _ ->
    let parts = List.map (canon_p env depth) (flatten_mul z) in
    let parts = List.sort (fun a b -> Stdlib.compare (pkey a) (pkey b))
        (List.concat_map flatten_mul parts)
    in
    rebuild_left (fun a b -> Mul (a, b)) parts
  | Prop (body, xs) ->
    canon_subscripted env depth xs (fun bind sub ->
        Prop (canon_f bind (depth + List.length xs) body, sub))
  | Cond (body, given, xs) ->
    canon_subscripted env depth xs (fun bind sub ->
        Cond
          ( canon_f bind (depth + List.length xs) body,
            canon_f bind (depth + List.length xs) given,
            sub ))

(* [||φ||_{x,y}] = [||φ'||_{y,x}] up to renaming: the proportion is
   over unordered assignments of the subscript tuple, so any
   permutation of the subscript denotes the same fraction. Try each
   permutation of a small subscript and keep the least rendering. *)
and canon_subscripted env depth xs build =
  let k = List.length xs in
  let perms =
    if k <= 1 || k > 3 || has_duplicates xs then [ xs ] else permutations xs
  in
  let sub = List.init k (fun i -> bound_name (depth + i)) in
  let candidates =
    List.map
      (fun perm ->
        let bind = List.mapi (fun i x -> (x, bound_name (depth + i))) perm @ env in
        build bind sub)
      perms
  in
  match sort_uniq_by pkey candidates with
  | best :: _ -> best
  | [] -> assert false

let canonicalize f =
  canon_f [] 0 (Simplify.nnf (Simplify.simplify f))

let to_string f = Pretty.to_string (canonicalize f)
let digest f = Digest.to_hex (Digest.string (to_string f))
let equivalent f g = to_string f = to_string g
