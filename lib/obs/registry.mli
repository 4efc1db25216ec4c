(** The process-wide metric registry.

    Every named metric of the data path lives here: modules create
    their counters/histograms at load time (so a dump always shows the
    full schema, zeros included), schedulers register per-instance
    depth gauges at instance creation.  Every export reads the table
    through {!snapshot} — one read under one lock — and renders that
    value with one of three pure writers: {!text} ([pmgr stats show]),
    {!json} ([pmgr stats json], the [--metrics-out] flags) and
    [Prom.text] ([--prom-out], [--prom-sock]).

    Names are dotted lowercase paths ([flow_table.hits],
    [gate.routing.dispatch], [sched.drr.1.backlog]). *)

type source =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

(** Get-or-create: the same name always returns the same counter.
    Raises [Invalid_argument] if the name is registered as another
    kind. *)
val counter : string -> Counter.t

(** Get-or-create; [bounds] is only used on first creation. *)
val histogram : ?bounds:int array -> string -> Histogram.t

(** Register (or replace) a callback gauge.  Replacement is deliberate:
    re-created plugin instances re-register under the same name. *)
val gauge : string -> (unit -> float) -> unit

(** Record a one-shot scalar (a bench result) as a constant gauge. *)
val set : string -> float -> unit

val find : string -> source option
val remove : string -> unit

(** Reset all counters and histograms; gauges are left alone.  Runs
    under the registry lock, and counter resets swap stripes
    atomically, so a concurrent {!snapshot} never observes a
    partially-reset registry. *)
val reset : unit -> unit

(** {1 Export} *)

(** A histogram as read: its bucket bounds, one read of its bucket
    counts ([Array.length bounds + 1] entries, the last the overflow
    bucket) and its sum.  The observation count is the sum of
    [counts]. *)
type hist = { bounds : int array; counts : int array; sum : int }

(** A counter's value, a gauge's reading, or a histogram. *)
type value = Int of int | Float of float | Hist of hist

(** Metric values sorted by name. *)
type snapshot = (string * value) list

(** Read every (or every [pattern]-matching, by substring) metric
    once, under the registry lock, so a snapshot never interleaves
    with {!reset}.  Gauge callbacks run here and must not call back
    into the registry.  Equal registry state yields equal snapshots,
    hence byte-equal pages from every writer. *)
val snapshot : ?pattern:string -> unit -> snapshot

(** The number format every writer uses: integral values without a
    fraction, others as [%g], and non-finite values as ["0"]. *)
val float_str : float -> string

(** [bucket_label ~inf h i] — bucket [i]'s upper bound, or [inf] for
    the overflow bucket. *)
val bucket_label : inf:string -> hist -> int -> string

(** Text page: one ["name value"] line per metric; a histogram line
    carries [count=], [sum=] and one [le<bound>=] field per bucket. *)
val text : snapshot -> string

(** The integer schema version emitted by {!json} (and mirrored in the
    ["rp-metrics/<n>"] schema string).  Bump on any change a
    line-oriented consumer could notice. *)
val schema_version : int

(** JSON page, schema [rp-metrics/3]: a ["schema_version"] field, then
    one metric per line (greppable by the CI gates without a JSON
    parser); histograms carry count, sum, p50/p90/p99/p999 (from
    {!Histogram.quantile_of_counts} over the same counts) and their
    buckets. *)
val json : snapshot -> string

(** [write_file path contents] replaces [path] atomically: it writes
    [path ^ ".tmp"] and renames it over [path], so a reader never sees
    a half-written page. *)
val write_file : string -> string -> unit
