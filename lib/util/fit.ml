type result = {
  params : float array;
  std_errors : float array;
  covariance : Linalg.matrix;
  residual_ss : float;
  iterations : int;
  converged : bool;
}

let residuals f params xs ys =
  Array.init (Array.length xs) (fun i -> ys.(i) -. f params xs.(i))

(* Weighted residuals and Jacobian rows are scaled by sqrt(w_i), so
   the plain least-squares machinery below minimises
   sum_i w_i * (ys_i - f(xs_i))^2 unchanged. *)
let scaled_residuals ?weights f params xs ys =
  let r = residuals f params xs ys in
  (match weights with
  | None -> ()
  | Some w ->
      if Array.length w <> Array.length xs then
        invalid_arg "Fit: weights/xs length mismatch";
      Array.iteri (fun i wi -> r.(i) <- sqrt (Float.max 0. wi) *. r.(i)) w);
  r

let sum_squares r = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. r

(* Central-difference Jacobian of the residual vector with respect to
   the parameters.  The step scales with the parameter magnitude so
   tiny sensitivities (k ~ 1e-3) are differentiated accurately. *)
let jacobian ?weights f params xs =
  let n = Array.length xs and m = Array.length params in
  let j = Linalg.make n m 0. in
  for p = 0 to m - 1 do
    let h = Float.max 1e-10 (1e-6 *. abs_float params.(p)) in
    let plus = Array.copy params and minus = Array.copy params in
    plus.(p) <- params.(p) +. h;
    minus.(p) <- params.(p) -. h;
    for i = 0 to n - 1 do
      let w = match weights with None -> 1. | Some w -> sqrt (Float.max 0. w.(i)) in
      (* Residual is y - f, so d(residual)/dp = -df/dp. *)
      j.(i).(p) <- -.w *. (f plus xs.(i) -. f minus xs.(i)) /. (2. *. h)
    done
  done;
  j

let covariance_of ?weights f params xs ys =
  let n = Array.length xs and m = Array.length params in
  let j = jacobian ?weights f params xs in
  let jt = Linalg.transpose j in
  let jtj = Linalg.mat_mul jt j in
  let rss = sum_squares (scaled_residuals ?weights f params xs ys) in
  let dof = max 1 (n - m) in
  let s2 = rss /. float_of_int dof in
  match Linalg.invert jtj with
  | inv -> Array.map (Array.map (fun v -> v *. s2)) inv
  | exception Failure _ -> Linalg.make m m nan

let curve_fit ?weights ~f ~xs ~ys ~init () =
  let max_iterations = 200 and tolerance = 1e-12 in
  let n = Array.length xs and m = Array.length init in
  if n <> Array.length ys then invalid_arg "Fit.curve_fit: xs/ys length mismatch";
  if n < m then invalid_arg "Fit.curve_fit: fewer points than parameters";
  let params = Array.copy init in
  let lambda = ref 1e-3 in
  let rss = ref (sum_squares (scaled_residuals ?weights f params xs ys)) in
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < max_iterations do
    incr iterations;
    let j = jacobian ?weights f params xs in
    let r = scaled_residuals ?weights f params xs ys in
    let jt = Linalg.transpose j in
    let jtj = Linalg.mat_mul jt j in
    let g = Linalg.mat_vec jt r in
    (* Negative gradient of 1/2 rss is J^T r with our sign convention
       for the residual Jacobian; the LM step solves
       (J^T J + lambda diag(J^T J)) delta = J^T r. *)
    let step_ok = ref false in
    let attempts = ref 0 in
    while (not !step_ok) && !attempts < 30 do
      incr attempts;
      let damped = Linalg.copy jtj in
      for i = 0 to m - 1 do
        let d = jtj.(i).(i) in
        damped.(i).(i) <- d +. (!lambda *. if d > 0. then d else 1.)
      done;
      match Linalg.solve damped g with
      | delta ->
          let trial = Array.mapi (fun i p -> p -. delta.(i)) params in
          let trial_rss = sum_squares (scaled_residuals ?weights f trial xs ys) in
          if Float.is_finite trial_rss && trial_rss <= !rss then begin
            let improvement = (!rss -. trial_rss) /. Float.max !rss 1e-300 in
            Array.blit trial 0 params 0 m;
            rss := trial_rss;
            lambda := Float.max 1e-12 (!lambda /. 10.);
            step_ok := true;
            if improvement < tolerance then converged := true
          end
          else lambda := !lambda *. 10.
      | exception Failure _ -> lambda := !lambda *. 10.
    done;
    if not !step_ok then converged := true
  done;
  let covariance = covariance_of ?weights f params xs ys in
  let std_errors =
    Array.init m (fun i ->
        let v = covariance.(i).(i) in
        if Float.is_finite v && v >= 0. then sqrt v else nan)
  in
  {
    params;
    std_errors;
    covariance;
    residual_ss = !rss;
    iterations = !iterations;
    converged = !converged;
  }

(* Iteratively reweighted least squares with the Huber psi: residuals
   within delta robust standard deviations keep weight 1, larger ones
   are down-weighted proportionally to 1/|r|.  The robust scale is
   re-estimated each round from the median absolute residual. *)
let huber_fit ~f ~xs ~ys ~init () =
  (* 95% efficiency under normality. *)
  let delta = 1.345 in
  let n = Array.length xs in
  let weights = Array.make n 1. in
  let result = ref (curve_fit ~f ~xs ~ys ~init ()) in
  let rounds = ref 0 in
  let settled = ref false in
  while (not !settled) && !rounds < 20 do
    incr rounds;
    let abs_r = Array.map abs_float (residuals f !result.params xs ys) in
    let scale = 1.4826 *. Stats.median abs_r in
    if scale <= 0. then settled := true
    else begin
      let changed = ref false in
      Array.iteri
        (fun i ri ->
          let u = ri /. scale in
          let w = if u <= delta then 1. else delta /. u in
          if abs_float (w -. weights.(i)) > 1e-3 then changed := true;
          weights.(i) <- w)
        abs_r;
      if not !changed then settled := true
      else
        result :=
          curve_fit ~weights ~f ~xs ~ys ~init:!result.params ()
    end
  done;
  !result
