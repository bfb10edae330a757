open Wmm_util

let performance ~k ~a = 1. /. ((1. -. k) +. (k *. a))

let cost_of_change ~k ~p =
  if k = 0. || p = 0. then invalid_arg "Sensitivity.cost_of_change: k and p must be non-zero";
  -.(((1. -. k) *. p) -. 1.) /. (k *. p)

type fit = { k : float; k_error_percent : float; residual_ss : float; converged : bool }

let unavailable = { k = nan; k_error_percent = infinity; residual_ss = nan; converged = false }

let available f = Float.is_finite f.k

let fit_k_with fitter ~xs ~ys =
  if Array.length xs < 2 then invalid_arg "Sensitivity.fit_k: needs at least two points";
  if Array.length xs <> Array.length ys then
    invalid_arg "Sensitivity.fit_k: xs/ys length mismatch";
  (* Initial guess from the largest-cost point, solving eq. 1 for k. *)
  let last = Array.length xs - 1 in
  let init =
    let a = xs.(last) and p = ys.(last) in
    if a > 1. && p > 0. && p < 1. then ((1. /. p) -. 1.) /. (a -. 1.) else 1e-3
  in
  let model params a = performance ~k:params.(0) ~a in
  let result = fitter ~f:model ~xs ~ys ~init:[| Float.max 1e-8 init |] () in
  let k = result.Fit.params.(0) in
  let err =
    if Float.is_finite result.Fit.std_errors.(0) && k <> 0. then
      100. *. abs_float (result.Fit.std_errors.(0) /. k)
    else infinity
  in
  {
    k;
    k_error_percent = err;
    residual_ss = result.Fit.residual_ss;
    converged = result.Fit.converged;
  }

let fit_k ~xs ~ys = fit_k_with (fun ~f ~xs ~ys ~init () -> Fit.curve_fit ~f ~xs ~ys ~init ()) ~xs ~ys

let fit_k_robust ~xs ~ys =
  fit_k_with (fun ~f ~xs ~ys ~init () -> Fit.huber_fit ~f ~xs ~ys ~init ()) ~xs ~ys

let well_suited fit = fit.converged && fit.k >= 1e-4 && fit.k_error_percent <= 15.
