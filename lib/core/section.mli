(** The experiment registry behind both front-ends.

    Every experiment the bench harness ([bench/main.exe]) and the CLI
    ([ispn_sim]) can run is one entry here: a name, a one-line doc, the
    parameters it reads, and [run], which performs the runs and renders the
    section's complete stdout — result rows, the [[obs]]/[[check]] footers
    and the paper reference / shape note.  The front-ends only parse flags
    into a {!ctx}, print [text], and write or count the labelled extras, so
    both print the same bytes for the same context.  Adding an experiment
    means adding one entry to {!all}. *)

type ctx = {
  duration : float;  (** Simulated seconds per run. *)
  seed : int64;
  jobs : int;  (** Width of the {!Ispn_exec.Pool} fan-out. *)
  shards : int;  (** Domains one sharded simulation is split over. *)
  avg_rate : float;  (** Per-flow average packet rate A (packets/s). *)
  verbose : bool;  (** Append per-flow statistics to the paper tables. *)
  check : bool;  (** Attach the {!Ispn_check.Audit} auditor. *)
  metrics : bool;  (** Collect metrics snapshots and print [[obs]] lines. *)
  series : bool;  (** Sample every instrument once per simulated second. *)
  trace_cap : int option;  (** Flight-recorder ring capacity. *)
}

val default_ctx : ctx
(** The paper's setting: 600 s, seed 42, A = 85 pkt/s, one shard,
    {!Ispn_exec.Pool.default_jobs} jobs, every instrument off. *)

(** The flags an entry reads.  [Fast] (a 60 s duration) and [Debug]
    (logging) are resolved by the front-end rather than stored in {!ctx}. *)
type param =
  | Duration | Fast | Seed | Jobs | Shards | Avg_rate | Verbose | Debug
  | Check | Metrics | Series | Trace_cap

type output = {
  text : string;  (** The section's full stdout. *)
  snapshots : (string * Ispn_obs.Metrics.snapshot) list;
      (** Labelled, in canonical job order; empty unless [ctx.metrics]. *)
  exports : (string * Ispn_obs.Series.export) list;
      (** Empty unless [ctx.series]. *)
  checks : (string * Ispn_check.Audit.summary) list;
      (** Empty unless [ctx.check]. *)
}

type t = {
  name : string;
  doc : string;
  params : param list;
  cap : float option;
      (** The bench runs the section for at most this many simulated
          seconds; the CLI honours its duration flag as given. *)
  run : ctx -> output;
}

val all : t list
(** In the bench's run order. *)

val conclude :
  ?metrics_file:string -> ?series_file:string -> output list -> unit
(** End a front-end run: write the outputs' snapshots and exports, in
    order, to the given files (CSV if the name ends in .csv, JSON
    otherwise), and exit 1 if any check found a violation. *)

val positive_int : string -> (int, string) result
val positive_float : string -> (float, string) result
(** Parse a count/width or a duration/rate flag: a positive integer, or a
    positive finite float.  Shared by both front-ends so each rejects the
    same inputs; the error is a one-line message. *)
