(** The paper's sensitivity model (section 3).

    The normalised performance [p] of a benchmark whose code path is
    loaded with an injected per-invocation cost of [a] nanoseconds is
    modelled as

    {[ p = 1 / ((1 - k) + k * a) ]}            (paper eq. 1)

    where [k] is the benchmark's dimensionless sensitivity to the
    code path.  Inverting for [a] converts an observed relative
    performance into an equivalent per-invocation cost change:

    {[ a = -(((1 - k) * p) - 1) / (k * p) ]}    (paper eq. 2)

    [1/((1-k) + ka)] rather than [1/(1 + ka)] because the baseline is
    nop-padded: [a] is never quite zero. *)

val performance : k:float -> a:float -> float
(** Eq. 1.  [a] in nanoseconds. *)

val cost_of_change : k:float -> p:float -> float
(** Eq. 2: the per-invocation cost (ns) that explains relative
    performance [p] given sensitivity [k]. *)

type fit = {
  k : float;
  k_error_percent : float;  (** Standard error as % of [k], as reported in the figures. *)
  residual_ss : float;
  converged : bool;
}

val unavailable : fit
(** The degraded-run placeholder: [k = nan], infinite error, not
    converged.  Rendered by the figures as a failed fit instead of
    aborting the whole report. *)

val available : fit -> bool
(** False exactly for {!unavailable}-style fits (non-finite [k]). *)

val fit_k : xs:float array -> ys:float array -> fit
(** Non-linear least-squares fit of eq. 1 to (cost-function size in
    ns, relative performance) samples.  Raises [Invalid_argument] on
    fewer than two points. *)

val fit_k_robust : xs:float array -> ys:float array -> fit
(** Like {!fit_k} but with Huber-weighted iteratively reweighted
    least squares ({!Wmm_util.Fit.huber_fit}): sweep points corrupted
    by outlier samples pull on [k] with bounded force.  Identical to
    {!fit_k} on clean data. *)

val well_suited : fit -> bool
(** The paper's usefulness criterion: a benchmark suits a code path
    when [k] is comparatively high and the fit variance low: the fit
    converged, k is at least 1e-4 and its error at most 15%. *)
