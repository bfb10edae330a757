open Wmm_util

let performance ~k ~a = 1. /. ((1. -. k) +. (k *. a))

let cost_of_change ~k ~p =
  if k = 0. || p = 0. then invalid_arg "Sensitivity.cost_of_change: k and p must be non-zero";
  -.(((1. -. k) *. p) -. 1.) /. (k *. p)

type fit = { k : float; k_error_percent : float; residual_ss : float; converged : bool }

let unavailable = { k = nan; k_error_percent = infinity; residual_ss = nan; converged = false }

let available f = Float.is_finite f.k

(* Eq. 1's least-squares fit: Levenberg-Marquardt on the one parameter
   k, minimising sum_i w_i (y_i - p(k, a_i))^2.  Residuals are scaled
   by sqrt w_i, and J_i = sqrt w_i (a_i - 1) / ((1 - k) + k a_i)^2 is
   the derivative of the i-th one (minus dp/dk), so J^T J and J^T r
   are plain sums. *)

let sum_squares ~weights ~xs ~ys k =
  let acc = ref 0. in
  Array.iteri
    (fun i a ->
      let r = sqrt weights.(i) *. (ys.(i) -. performance ~k ~a) in
      acc := !acc +. (r *. r))
    xs;
  !acc

let normal_equations ~weights ~xs ~ys k =
  let jtj = ref 0. and jtr = ref 0. in
  Array.iteri
    (fun i a ->
      let sw = sqrt weights.(i) in
      let d = (1. -. k) +. (k *. a) in
      let j = sw *. (a -. 1.) /. (d *. d) in
      jtj := !jtj +. (j *. j);
      jtr := !jtr +. (j *. (sw *. (ys.(i) -. performance ~k ~a))))
    xs;
  (!jtj, !jtr)

(* Each iteration tries steps (J^T J + lambda (J^T J or 1)) delta = J^T r
   from k, raising lambda tenfold on a rejected one; a step is accepted
   when it does not raise the residual sum.  Converged: an accepted step
   improved it by under 1e-12 relative, or 30 tries in a row were
   rejected; 200 iterations without either leave the fit unconverged.
   The standard error is sqrt((J^T J)^-1 rss / (n - 1)) at the solve's
   own weights. *)
let solve ~weights ~xs ~ys init =
  let rec iterate k rss lambda iteration =
    if iteration = 200 then (k, rss, false)
    else begin
      let jtj, jtr = normal_equations ~weights ~xs ~ys k in
      let rec step lambda tries =
        if tries = 30 then (k, rss, true)
        else begin
          let damped = jtj +. (lambda *. if jtj > 0. then jtj else 1.) in
          let trial = k -. (jtr /. damped) in
          let trial_rss =
            if abs_float damped < 1e-300 then nan else sum_squares ~weights ~xs ~ys trial
          in
          if not (Float.is_finite trial_rss && trial_rss <= rss) then
            step (lambda *. 10.) (tries + 1)
          else if (rss -. trial_rss) /. Float.max rss 1e-300 < 1e-12 then (trial, trial_rss, true)
          else iterate trial trial_rss (Float.max 1e-12 (lambda /. 10.)) (iteration + 1)
        end
      in
      step lambda 0
    end
  in
  let k, rss, converged = iterate init (sum_squares ~weights ~xs ~ys init) 1e-3 0 in
  let jtj, _ = normal_equations ~weights ~xs ~ys k in
  let variance = (1. /. jtj) *. (rss /. float_of_int (Array.length xs - 1)) in
  {
    k;
    k_error_percent =
      (if jtj >= 1e-300 && Float.is_finite variance && k <> 0. then
         100. *. abs_float (sqrt variance /. k)
       else infinity);
    residual_ss = rss;
    converged;
  }

(* The starting k: eq. 1 solved for k at the largest-cost point. *)
let initial_guess ~xs ~ys =
  if Array.length xs < 2 then invalid_arg "Sensitivity.fit_k: needs at least two points";
  if Array.length xs <> Array.length ys then
    invalid_arg "Sensitivity.fit_k: xs/ys length mismatch";
  let a = xs.(Array.length xs - 1) and p = ys.(Array.length ys - 1) in
  Float.max 1e-8 (if a > 1. && p > 0. && p < 1. then ((1. /. p) -. 1.) /. (a -. 1.) else 1e-3)

let fit_k ~xs ~ys =
  solve ~weights:(Array.make (Array.length xs) 1.) ~xs ~ys (initial_guess ~xs ~ys)

(* Iteratively reweighted least squares with the Huber psi: a residual
   within delta = 1.345 robust standard deviations (95% efficiency under
   normality) keeps weight 1, a larger one gets delta s / |r|, where the
   scale s = 1.4826 median |r| is re-estimated each round.  While some
   weight moves by more than 1e-3 the fit is redone from the current k,
   at most 20 times; the result is the last solve's. *)
let fit_k_robust ~xs ~ys =
  let delta = 1.345 in
  let rec reweight fit weights round =
    if round = 20 then fit
    else begin
      let abs_r = Array.mapi (fun i a -> abs_float (ys.(i) -. performance ~k:fit.k ~a)) xs in
      let scale = 1.4826 *. Stats.median abs_r in
      let next =
        Array.map
          (fun r ->
            let u = r /. scale in
            if u <= delta then 1. else delta /. u)
          abs_r
      in
      if scale <= 0. || not (Array.exists2 (fun w w' -> abs_float (w' -. w) > 1e-3) weights next)
      then fit
      else reweight (solve ~weights:next ~xs ~ys fit.k) next (round + 1)
    end
  in
  reweight (fit_k ~xs ~ys) (Array.make (Array.length xs) 1.) 0

let well_suited fit = fit.converged && fit.k >= 1e-4 && fit.k_error_percent <= 15.
