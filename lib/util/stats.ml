let check_nonempty name samples =
  if Array.length samples = 0 then invalid_arg (name ^ ": empty sample array")

let mean samples =
  check_nonempty "Stats.mean" samples;
  Array.fold_left ( +. ) 0. samples /. float_of_int (Array.length samples)

let geometric_mean samples =
  check_nonempty "Stats.geometric_mean" samples;
  let log_sum =
    Array.fold_left
      (fun acc x ->
        if x <= 0. then invalid_arg "Stats.geometric_mean: non-positive sample";
        acc +. log x)
      0. samples
  in
  exp (log_sum /. float_of_int (Array.length samples))

let variance samples =
  let n = Array.length samples in
  if n < 2 then invalid_arg "Stats.variance: needs at least two samples";
  let m = mean samples in
  let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. samples in
  ss /. float_of_int (n - 1)

let std samples = sqrt (variance samples)

let std_error samples = std samples /. sqrt (float_of_int (Array.length samples))

let sorted samples =
  let copy = Array.copy samples in
  Array.sort compare copy;
  copy

let percentile samples p =
  check_nonempty "Stats.percentile" samples;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p outside [0, 100]";
  let s = sorted samples in
  let n = Array.length s in
  if n = 1 then s.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median samples = percentile samples 50.

let mad samples =
  check_nonempty "Stats.mad" samples;
  let m = median samples in
  median (Array.map (fun x -> abs_float (x -. m)) samples)

(* 1.4826 makes the MAD a consistent estimator of the standard
   deviation under normality, so [threshold] reads as a z-score. *)
let mad_scale = 1.4826

let reject_outliers samples =
  let threshold = 3.5 in
  check_nonempty "Stats.reject_outliers" samples;
  let n = Array.length samples in
  if n < 4 then Array.copy samples
  else begin
    let m = median samples in
    let s = mad_scale *. mad samples in
    if s <= 0. then Array.copy samples
    else begin
      let kept =
        Array.of_list
          (List.filter
             (fun x -> abs_float (x -. m) <= threshold *. s)
             (Array.to_list samples))
      in
      (* Never reject down to a degenerate sample: the summary layer
         needs at least two points for a confidence interval. *)
      if Array.length kept < 2 then Array.copy samples else kept
    end
  end

let minimum samples =
  check_nonempty "Stats.minimum" samples;
  Array.fold_left min samples.(0) samples

let maximum samples =
  check_nonempty "Stats.maximum" samples;
  Array.fold_left max samples.(0) samples

(* Lanczos approximation, g = 7, n = 9 coefficients. *)
let lanczos =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028; 771.32342877765313;
     -176.61502916214059; 12.507343278686905; -0.13857109526572012; 9.9843695780195716e-6;
     1.5056327351493116e-7 |]

let rec log_gamma x =
  if x <= 0. then invalid_arg "Stats.log_gamma: non-positive argument";
  if x < 0.5 then
    (* Reflection formula keeps the Lanczos series in its accurate range. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else begin
    let x = x -. 1. in
    let acc = ref lanczos.(0) in
    for i = 1 to 8 do
      acc := !acc +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

(* Continued fraction for the incomplete beta function (Numerical
   Recipes betacf), evaluated with the modified Lentz method. *)
let betacf a b x =
  let max_iter = 200 and eps = 3e-14 and fpmin = 1e-300 in
  let qab = a +. b and qap = a +. 1. and qam = a -. 1. in
  let c = ref 1. in
  let d = ref (1. -. (qab *. x /. qap)) in
  if abs_float !d < fpmin then d := fpmin;
  d := 1. /. !d;
  let h = ref !d in
  let m = ref 1 in
  let continue = ref true in
  while !continue && !m <= max_iter do
    let mf = float_of_int !m in
    let m2 = 2. *. mf in
    let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1. +. (aa *. !d);
    if abs_float !d < fpmin then d := fpmin;
    c := 1. +. (aa /. !c);
    if abs_float !c < fpmin then c := fpmin;
    d := 1. /. !d;
    h := !h *. !d *. !c;
    let aa = -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2)) in
    d := 1. +. (aa *. !d);
    if abs_float !d < fpmin then d := fpmin;
    c := 1. +. (aa /. !c);
    if abs_float !c < fpmin then c := fpmin;
    d := 1. /. !d;
    let delta = !d *. !c in
    h := !h *. delta;
    if abs_float (delta -. 1.) < eps then continue := false;
    incr m
  done;
  !h

let incomplete_beta ~a ~b ~x =
  if x < 0. || x > 1. then invalid_arg "Stats.incomplete_beta: x outside [0, 1]";
  if x = 0. then 0.
  else if x = 1. then 1.
  else begin
    let ln_front =
      log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x) +. (b *. log (1. -. x))
    in
    let front = exp ln_front in
    (* Use the symmetry transformation for faster convergence. *)
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. betacf a b x /. a
    else 1. -. (front *. betacf b a (1. -. x) /. b)
  end

let t_cdf ~df x =
  if df <= 0. then invalid_arg "Stats.t_cdf: df must be positive";
  let ib = incomplete_beta ~a:(df /. 2.) ~b:0.5 ~x:(df /. (df +. (x *. x))) in
  if x >= 0. then 1. -. (0.5 *. ib) else 0.5 *. ib

let t_critical ~confidence ~df =
  if confidence <= 0. || confidence >= 1. then
    invalid_arg "Stats.t_critical: confidence outside (0, 1)";
  let target = 1. -. ((1. -. confidence) /. 2.) in
  (* Bisection: the CDF is monotone, and [0, 1000] covers any df and
     confidence level of practical interest. *)
  let lo = ref 0. and hi = ref 1000. in
  for _ = 1 to 200 do
    let mid = (!lo +. !hi) /. 2. in
    if t_cdf ~df mid < target then lo := mid else hi := mid
  done;
  (!lo +. !hi) /. 2.

type interval = { lo : float; hi : float }

let confidence_interval ?(confidence = 0.95) samples =
  let n = Array.length samples in
  if n < 2 then invalid_arg "Stats.confidence_interval: needs at least two samples";
  let m = mean samples in
  let half = t_critical ~confidence ~df:(float_of_int (n - 1)) *. std_error samples in
  { lo = m -. half; hi = m +. half }

let geometric_confidence_interval ?(confidence = 0.95) samples =
  let logs = Array.map log samples in
  let ci = confidence_interval ~confidence logs in
  { lo = exp ci.lo; hi = exp ci.hi }

type summary = {
  n : int;
  gmean : float;
  amean : float;
  ci : interval;
  smin : float;
  smax : float;
}

let summarise ?(confidence = 0.95) samples =
  check_nonempty "Stats.summarise" samples;
  let ci =
    if Array.length samples >= 2 then geometric_confidence_interval ~confidence samples
    else { lo = samples.(0); hi = samples.(0) }
  in
  {
    n = Array.length samples;
    gmean = geometric_mean samples;
    amean = mean samples;
    ci;
    smin = minimum samples;
    smax = maximum samples;
  }

let ratio_summary ~test ~base =
  {
    n = min test.n base.n;
    gmean = test.gmean /. base.gmean;
    amean = test.amean /. base.amean;
    ci = { lo = test.ci.lo /. base.ci.hi; hi = test.ci.hi /. base.ci.lo };
    smin = test.smin /. base.smax;
    smax = test.smax /. base.smin;
  }
