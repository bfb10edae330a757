(** Descriptive statistics and Student-t confidence intervals.

    The paper reports geometric means of six or more samples with 95%
    confidence intervals from the Student t-distribution, and
    compounds errors of comparative (ratio) results pessimistically:
    "comparative minimum is test case minimum divided by base case
    maximum".  This module implements exactly those computations. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on the empty array. *)

val geometric_mean : float array -> float
(** Geometric mean of strictly positive samples.  The paper uses this
    to reduce the impact of outliers when aggregating run times. *)

val variance : float array -> float
(** Unbiased sample variance (ddof = 1).  Needs two or more samples. *)

val std : float array -> float
(** Sample standard deviation. *)

val std_error : float array -> float
(** Standard error of the mean: [std / sqrt n]. *)

val median : float array -> float

val percentile : float array -> float -> float
(** [percentile samples p] with [p] in [\[0, 100\]], linear
    interpolation between order statistics. *)

val median_of_means : ?buckets:int -> float array -> float
(** Robust location estimate: partition the samples into [buckets]
    contiguous groups (default [sqrt n]), take each group's mean, and
    return the median of those means.  A bounded number of corrupted
    samples can poison at most their own buckets, which the median
    then discards. *)

val mad : float array -> float
(** Median absolute deviation from the median (unscaled).  Multiply
    by 1.4826 for a robust standard-deviation estimate under
    normality. *)

val reject_outliers : float array -> float array
(** Drop samples whose modified z-score
    [|x - median| / (1.4826 * mad)] exceeds 3.5.  Arrays of fewer than four samples, zero-MAD arrays, and
    rejections that would leave fewer than two samples are returned
    unchanged (as a copy): the caller always gets a usable sample
    set. *)

val minimum : float array -> float

val maximum : float array -> float

val log_gamma : float -> float
(** Natural log of the gamma function (Lanczos approximation),
    accurate to ~1e-13 for positive arguments. *)

val incomplete_beta : a:float -> b:float -> x:float -> float
(** Regularised incomplete beta function I_x(a, b), by continued
    fraction. *)

val t_cdf : df:float -> float -> float
(** Student t cumulative distribution function. *)

val t_critical : confidence:float -> df:float -> float
(** Two-sided critical value: [t_critical ~confidence:0.95 ~df:5] is
    the t with [P(|T| <= t) = 0.95] for 5 degrees of freedom
    (~2.5706). *)

type interval = { lo : float; hi : float }
(** A confidence interval. *)

val confidence_interval : ?confidence:float -> float array -> interval
(** Two-sided Student-t confidence interval on the arithmetic mean
    (default 95%).  Needs two or more samples. *)

val geometric_confidence_interval : ?confidence:float -> float array -> interval
(** Confidence interval on the geometric mean, computed in log space
    as the paper's tooling does. *)

type summary = {
  n : int;
  gmean : float;
  amean : float;
  ci : interval;  (** 95% CI on the geometric mean. *)
  smin : float;
  smax : float;
}
(** One benchmark result cell: everything the harness reports. *)

val summarise : ?confidence:float -> float array -> summary

val ratio_summary : test:summary -> base:summary -> summary
(** Comparative (relative-performance) result.  Point estimate is the
    ratio of geometric means; errors compound pessimistically per the
    paper: minimum = test minimum / base maximum, maximum = test
    maximum / base minimum, and the CI compounds likewise. *)

val relative_std_error : value:float -> error:float -> float
(** [error / |value|]; the paper reports fit variance as a percentage
    of the fitted parameter (e.g. "k = 0.00277 +- 2.5%"). *)
