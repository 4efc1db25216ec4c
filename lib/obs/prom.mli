(** Prometheus text exposition of the registry.

    Names map [a.b-c] to [rp_a_b_c]; counters and gauges are single
    samples under a [# TYPE] line, histograms render in the standard
    cumulative form ([_bucket{le="..."}] ending in [+Inf], then
    [_sum]/[_count]).  [rp_router --prom-out FILE] rewrites this every
    report interval (atomically, {!Registry.write_file}) and
    [--prom-sock PATH] serves it per connection. *)

(** Render the exposition of a registry snapshot. *)
val text : Registry.snapshot -> string

(** Exposition name for a registry metric name ([rp_] prefix,
    non-alphanumerics to underscores). *)
val sanitize : string -> string

(** Validate exposition text: name/value syntax, samples under a
    declared [# TYPE], cumulative-bucket monotonicity, [+Inf]
    presence, [_count] agreement.  Returns the number of sample lines
    or an error naming the offending line.  This is what
    [prom_lint.exe] runs in CI. *)
val lint : string -> (int, string) result
