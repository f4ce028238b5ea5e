(** Entropy maximisation over the probability simplex subject to linear
    constraints.

    This is the numeric core of Section 6 of the paper: a unary
    knowledge base induces linear constraints on the vector of atom
    proportions, and degrees of belief concentrate at the
    maximum-entropy point of the constrained set. The dimensions are
    tiny (2^k for k unary predicates), so robustness matters far more
    than speed: we use an augmented-Lagrangian outer loop around
    projected-gradient ascent on the simplex, followed by an exactness
    polish for coordinates driven to the boundary.

    Constraints are affine in the proportion vector [p]:
    - [Eq (a, b)]: [a·p = b]
    - [Le (a, b)]: [a·p <= b]
    The simplex constraints ([p >= 0], [Σp = 1]) are implicit and
    enforced by projection. *)

type constraint_ = Eq of Vec.t * float | Le of Vec.t * float

type result = {
  point : Vec.t;  (** the maximum-entropy point found *)
  entropy : float;  (** its entropy *)
  max_violation : float;  (** worst constraint violation at [point] *)
  iterations : int;  (** total inner iterations used *)
}

let constraint_dim = function Eq (a, _) | Le (a, _) -> Vec.dim a

(** [violation c p] is how far [p] is from satisfying [c] (0 when
    satisfied; equality violations are absolute values). *)
let violation c (p : Vec.t) =
  match c with
  | Eq (a, b) -> Float.abs (Vec.dot a p -. b)
  | Le (a, b) -> Float.max 0.0 (Vec.dot a p -. b)

let max_violation cs p =
  List.fold_left (fun m c -> Float.max m (violation c p)) 0.0 cs

(* Value and gradient of the augmented-Lagrangian penalty terms.
   For Eq: λ g + (ρ/2) g².  For Le: (1/2ρ)(max(0, μ + ρ h)² − μ²). *)
let penalty_value cs lambdas rho p =
  List.fold_left2
    (fun acc c lam ->
      match c with
      | Eq (a, b) ->
        let g = Vec.dot a p -. b in
        acc +. (lam *. g) +. (0.5 *. rho *. g *. g)
      | Le (a, b) ->
        let h = Vec.dot a p -. b in
        let s = Float.max 0.0 (lam +. (rho *. h)) in
        acc +. (((s *. s) -. (lam *. lam)) /. (2.0 *. rho)))
    0.0 cs lambdas

let penalty_grad cs lambdas rho p =
  let n = Vec.dim p in
  let grad = Vec.create n 0.0 in
  List.iter2
    (fun c lam ->
      match c with
      | Eq (a, b) ->
        let g = Vec.dot a p -. b in
        let coef = lam +. (rho *. g) in
        for i = 0 to n - 1 do
          grad.(i) <- grad.(i) +. (coef *. a.(i))
        done
      | Le (a, b) ->
        let h = Vec.dot a p -. b in
        let s = Float.max 0.0 (lam +. (rho *. h)) in
        if s > 0.0 then
          for i = 0 to n - 1 do
            grad.(i) <- grad.(i) +. (s *. a.(i))
          done)
    cs lambdas;
  grad

(* Objective being *minimised*: negative entropy + penalties. *)
let objective cs lambdas rho p =
  -.Vec.entropy p +. penalty_value cs lambdas rho p

let objective_grad cs lambdas rho p =
  Vec.sub (penalty_grad cs lambdas rho p) (Vec.entropy_grad p)

(* Projected gradient descent with Armijo backtracking. The step size
   warm-starts from the previous iteration's accepted step (doubled),
   which keeps the line search to O(1) evaluations per iteration once
   the right scale is found. Every iteration polls the request budget
   ({!Rw_pool.Budget.check}), so a deadline can preempt a long solve
   on any domain. *)
let inner_solve cs lambdas rho p0 ~max_iters ~tol =
  let rec go p fp step0 iters =
    if iters >= max_iters then (p, iters)
    else begin
      Rw_pool.Budget.check ();
      let grad = objective_grad cs lambdas rho p in
      let rec backtrack step =
        if step < 1e-14 then None
        else begin
          let cand = Vec.project_simplex (Vec.axpy (-.step) grad p) in
          let fc = objective cs lambdas rho cand in
          if fc < fp -. 1e-15 then Some (cand, fc, step)
          else backtrack (step /. 2.0)
        end
      in
      match backtrack step0 with
      | None -> (p, iters)
      | Some (cand, fc, step) ->
        if Vec.linf_dist cand p < tol && Float.abs (fp -. fc) < tol *. tol then
          (cand, iters + 1)
        else go cand fc (Float.min 1.0 (step *. 2.0)) (iters + 1)
    end
  in
  go p0 (objective cs lambdas rho p0) 1.0 0

(* ------------------------------------------------------------------ *)
(* Dual fast path                                                     *)
(* ------------------------------------------------------------------ *)

(* When the constraint system consists of inequality constraints plus
   equalities that merely pin a non-negative combination to zero (the
   shape produced by unary knowledge bases: universal facts exclude
   atoms, everything else is a [≤] at some tolerance), the maximum-
   entropy problem has a clean dual:

     minimise  F(λ) = log Σ_{A ∉ Z} exp(−(aᵀλ)_A) + λ·b    over λ ≥ 0

   where [Z] is the set of excluded coordinates. The primal point is
   recovered in closed form, [p_A ∝ exp(−(aᵀλ)_A)], so the solution is
   accurate to near machine precision — which matters when later
   computations condition on sets whose mass is of the order of the
   tolerances. Returns [None] when the system is not of this shape. *)
let solve_via_dual ~dim cs =
  let zero = Array.make dim false in
  let les = ref [] in
  let shape_ok =
    List.for_all
      (fun c ->
        match c with
        | Eq (a, b) ->
          if b = 0.0 && Array.for_all (fun x -> x >= 0.0) a then begin
            Array.iteri (fun i x -> if x > 0.0 then zero.(i) <- true) a;
            true
          end
          else false
        | Le (a, b) ->
          les := (a, b) :: !les;
          true)
      cs
  in
  if not shape_ok then None
  else begin
    let live = Array.init dim (fun i -> not zero.(i)) in
    let live_idx =
      Array.of_list (List.filter (fun i -> live.(i)) (List.init dim Fun.id))
    in
    let nl = Array.length live_idx in
    if nl = 0 then None
    else begin
      let les = Array.of_list (List.rev !les) in
      let m = Array.length les in
      (* Primal point for a given multiplier vector. *)
      let primal lambda =
        let expo = Array.make nl 0.0 in
        for k = 0 to nl - 1 do
          let atom = live_idx.(k) in
          let s = ref 0.0 in
          for j = 0 to m - 1 do
            let a, _ = les.(j) in
            s := !s +. (lambda.(j) *. a.(atom))
          done;
          expo.(k) <- -. !s
        done;
        let mx = Array.fold_left Float.max Float.neg_infinity expo in
        let z = ref 0.0 in
        let w = Array.map (fun e -> Float.exp (e -. mx)) expo in
        Array.iter (fun x -> z := !z +. x) w;
        let p = Vec.create dim 0.0 in
        Array.iteri (fun k atom -> p.(atom) <- w.(k) /. !z) live_idx;
        (p, mx +. Float.log !z)
      in
      let dual_value lambda =
        let _, logz = primal lambda in
        let lb = ref 0.0 in
        for j = 0 to m - 1 do
          let _, b = les.(j) in
          lb := !lb +. (lambda.(j) *. b)
        done;
        logz +. !lb
      in
      let dual_grad lambda =
        let p, _ = primal lambda in
        Array.init m (fun j ->
            let a, b = les.(j) in
            b -. Vec.dot a p)
      in
      (* Projected gradient descent on λ ≥ 0 with warm-started Armijo. *)
      let lambda = Array.make m 0.0 in
      let rec go lambda fl step0 iters =
        if iters >= 20000 then (lambda, iters)
        else begin
          Rw_pool.Budget.check ();
          let g = dual_grad lambda in
          let rec backtrack step =
            if step < 1e-16 then None
            else begin
              let cand =
                Array.init m (fun j -> Float.max 0.0 (lambda.(j) -. (step *. g.(j))))
              in
              let fc = dual_value cand in
              if fc < fl -. 1e-16 then Some (cand, fc, step)
              else backtrack (step /. 2.0)
            end
          in
          match backtrack step0 with
          | None -> (lambda, iters)
          | Some (cand, fc, step) ->
            (* Projected-gradient residual as the stopping criterion. *)
            let moved =
              let acc = ref 0.0 in
              Array.iteri
                (fun j x -> acc := Float.max !acc (Float.abs (x -. lambda.(j))))
                cand;
              !acc
            in
            if moved < 1e-14 then (cand, iters + 1)
            else go cand fc (Float.min 1e6 (step *. 4.0)) (iters + 1)
        end
      in
      let lambda, iters = go lambda (dual_value lambda) 1.0 0 in
      let p, _ = primal lambda in
      Some
        {
          point = p;
          entropy = Vec.entropy p;
          max_violation = max_violation cs p;
          iterations = iters;
        }
    end
  end

(** [solve ~dim cs] maximises entropy over the simplex of dimension
    [dim] subject to [cs]. Optional knobs control the outer loop; the
    defaults are tuned for the 2^k-dimensional problems arising from
    the paper's knowledge bases.

    Raises [Invalid_argument] if a constraint has the wrong dimension. *)
let rec solve ?(outer_iters = 60) ?(inner_iters = 2000) ?(tol = 1e-10)
    ?(feas_tol = 1e-9) ?initial ~dim cs =
  List.iter
    (fun c ->
      if constraint_dim c <> dim then
        invalid_arg "Entropy_opt.solve: constraint dimension mismatch")
    cs;
  match if initial = None then solve_via_dual ~dim cs else None with
  | Some r when r.max_violation <= Float.max feas_tol 1e-9 -> r
  | Some _ | None -> solve_primal ~outer_iters ~inner_iters ~tol ~feas_tol ?initial ~dim cs

and solve_primal ~outer_iters ~inner_iters ~tol ~feas_tol ?initial ~dim cs =
  let p0 =
    match initial with
    | Some p when Vec.dim p = dim -> Vec.project_simplex p
    | Some _ -> invalid_arg "Entropy_opt.solve: initial dimension mismatch"
    | None -> Vec.create dim (1.0 /. float_of_int dim)
  in
  let rec outer k p lambdas rho total_iters =
    let p, used = inner_solve cs lambdas rho p ~max_iters:inner_iters ~tol in
    let total_iters = total_iters + used in
    let viol = max_violation cs p in
    if viol <= feas_tol || k >= outer_iters then
      { point = p; entropy = Vec.entropy p; max_violation = viol;
        iterations = total_iters }
    else begin
      (* Standard multiplier updates; grow rho when progress stalls. *)
      let lambdas =
        List.map2
          (fun c lam ->
            match c with
            | Eq (a, b) -> lam +. (rho *. (Vec.dot a p -. b))
            | Le (a, b) -> Float.max 0.0 (lam +. (rho *. (Vec.dot a p -. b))))
          cs lambdas
      in
      outer (k + 1) p lambdas (Float.min (rho *. 2.0) 1e9) total_iters
    end
  in
  outer 0 p0 (List.map (fun _ -> 0.0) cs) 10.0 0

(** [solve_conditional ~dim cs] like {!solve} but raises [Failure] when
    the solver cannot reach feasibility — used by callers that must
    distinguish "inconsistent KB" from a numeric answer. *)
let solve_feasible ?outer_iters ?inner_iters ?tol ?(feas_tol = 1e-7) ?initial
    ~dim cs =
  let r = solve ?outer_iters ?inner_iters ?tol ~feas_tol:(feas_tol /. 10.0)
      ?initial ~dim cs in
  if r.max_violation > feas_tol then
    failwith
      (Printf.sprintf
         "Entropy_opt.solve_feasible: infeasible (violation %.3g)"
         r.max_violation)
  else r
