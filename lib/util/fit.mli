(** Non-linear least squares curve fitting (Levenberg-Marquardt).

    The paper fits its sensitivity model with scipy's [curve_fit] and
    reports the estimated variance of each fit; this module provides
    the same facility: an LM optimiser with a numerically estimated
    Jacobian and a parameter covariance estimate [(J^T J)^-1 * s^2]
    where [s^2] is the residual variance. *)

type result = {
  params : float array;  (** Fitted parameter vector. *)
  std_errors : float array;
      (** One standard error per parameter, from the covariance
          diagonal. *)
  covariance : Linalg.matrix;
  residual_ss : float;  (** Sum of squared residuals at the optimum. *)
  iterations : int;
  converged : bool;
      (** False when 200 iterations ran out before a step's relative
          improvement fell under 1e-12. *)
}

val curve_fit :
  ?weights:float array ->
  f:(float array -> float -> float) ->
  xs:float array ->
  ys:float array ->
  init:float array ->
  unit ->
  result
(** [curve_fit ~f ~xs ~ys ~init ()] minimises
    [sum_i (ys.(i) - f params xs.(i))^2] starting from [init].
    With [weights] the objective becomes
    [sum_i w_i * (ys.(i) - f params xs.(i))^2] (a zero weight removes
    the point entirely).  Raises [Invalid_argument] if [xs], [ys] or
    [weights] differ in length or there are fewer points than
    parameters. *)

val huber_fit :
  f:(float array -> float -> float) ->
  xs:float array ->
  ys:float array ->
  init:float array ->
  unit ->
  result
(** Robust fit by iteratively reweighted least squares with Huber
    weights: residuals within [delta = 1.345] (95% efficiency under
    normality) robust standard deviations of zero keep full weight,
    larger residuals are down-weighted by [delta * s / |r|].
    Outlier points therefore pull on the fit with bounded force
    instead of quadratically.  Degenerates to {!curve_fit} when all
    residuals are small. *)
