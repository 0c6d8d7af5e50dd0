(** Logging sources for the library.

    All subsystems log through {!Logs} under the [ispn.*] source names so an
    application can tune them individually; nothing is printed unless the
    host application installs a reporter ({!setup} installs a basic one —
    the CLI's [--debug] flag calls it). *)

val link : Logs.src
(** [ispn.link] — buffer drops and transmitter stalls (debug level). *)

val admission : Logs.src
(** [ispn.admission] — admit/reject decisions (info level). *)

val service : Logs.src
(** [ispn.service] — flow establishment and teardown (info level). *)

val enabled : Logs.src -> Logs.level -> bool
(** Whether a message at [level] from [src] would be reported: the test
    {!Logs} applies itself.  Guarding a call with it keeps a disabled log
    line from allocating its optional [~src] and its message closure. *)

val setup : ?level:Logs.level -> unit -> unit
(** Install a [Format]-based stderr reporter at [level] (default
    [Logs.Info]) for every [ispn.*] source. *)
