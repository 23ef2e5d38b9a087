(** The audit driver: runs the invariant catalogue and the
    reachability analysis over a snapshot, and applies the configured
    policy to the outcome. *)

type policy = Ppolicy.t = Off | Warn | Reject

val policy : unit -> policy
(** Process-default audit policy; defaults to [Warn].  Atomic, so safe
    to read from any domain.  [Pconfig] re-exports this and seeds it
    from [PALLADIUM_AUDIT]; a world's override is the [audit] field of
    its [Kernel.policy]. *)

val set_policy : policy -> unit

val policy_of_string : string -> policy option
(** Accepts ["off"], ["warn"], ["reject"] (case-insensitive). *)

val policy_name : policy -> string

val effective_policy : policy option -> policy
(** The policy for one world: its override
    ([(Kernel.policy kernel).audit]) when set, else the process
    default as it stands now. *)

type report = {
  rp_findings : Finding.t list;  (** catalogue findings, then REACH *)
  rp_checked : int;  (** invariants evaluated (catalogue + reach) *)
  rp_reach : Reach.result;
  rp_generation : int;  (** generation stamp of the audited snapshot *)
}

val run : Snapshot.t -> report
(** Evaluate every invariant and the reachability proof.  Pure: no
    policy, no counters. *)

val ok : report -> bool

exception Rejected of string * report
(** Raised by {!enforce} under [Reject] when the report has findings;
    the string is the audit context (e.g. ["insmod logger"]). *)

val enforce : ?policy:policy -> context:string -> Snapshot.t -> report
(** {!run} plus policy ([?policy] defaults to the process default):
    bumps the [audit.pass]/[audit.warn]/[audit.reject] counters, emits
    an [Audit_outcome] trace event, prints the report to stderr under
    [Warn], and raises {!Rejected} under [Reject].  Returns the report
    when execution continues. *)

val report_json : report -> Obs.Json.t

val pp_report : report Fmt.t
