(** The shared workloads: one definition of the fleet world that the
    bench ([parallel], [timeline]), the CLI [fleet] command and the
    tests all drive, plus the Table 1 mark-window helpers it measures
    protected calls with. *)

(** {2 Measuring one protected call} *)

val marks_of_call :
  Pbackend.app -> (unit -> ('a, Pbackend.call_error) result) ->
  (string * int) list
(** Run [call] and return the [Mark] stamps it left (the window since
    the CPU's mark count before it); fails when the call fails. *)

val call_bounds : (string * int) list -> int * int * int * int * int * int
(** The Table 1 boundaries of one protected call (setup, call, body,
    return, restore, done); fails when a mark is missing. *)

val call_overhead : (string * int) list -> int
(** The Table 1 total of one call: every phase but the extension
    body. *)

val warm_null_call :
  Pbackend.app -> unit -> (int * int, Pbackend.call_error) result
(** Load [Ulib.null_image] into the application, resolve [null_fn] and
    make one warm-up call (TLB and pages); return the call, which
    passes 1 and yields {!Pbackend.call}'s result.  Fails when the
    warm-up call fails. *)

(** {2 The fleet world} *)

type world = {
  fw_batches : int;
  fw_calls : int;  (** measured protected calls (warm-up excluded) *)
  fw_requests : int;  (** web-server requests served *)
  fw_sim_usec : float;  (** simulated time of the web-server slices *)
}

val fleet_world :
  ?collectors:Obs.Collector.t array ->
  ?bytes:int ->
  until:(int -> bool) ->
  calls:int ->
  requests:int ->
  int ->
  world
(** [fleet_world ~until ~calls ~requests i] boots world [i], makes a
    {!warm_null_call} in a backend application and (with
    [?collectors]) attaches [collectors.(i)] to the
    world CPU.  It then runs batches until [until batches_done]
    holds, checked after each batch, so at least one batch runs.  A
    batch makes [calls + i mod 3] protected null calls, recording
    each call's Table 1 overhead in [fleet.call_cycles], and serves
    [requests + 32 * (i mod 4)] LibCGI-protected requests of
    [?bytes] (default 2048) at concurrency 16 into
    [fleet.request_usec], priced at the world's first measured warm
    call.  The slice's simulated time is charged to the world CPU
    and the collector ticked, so samples track offered load.  At the
    end the collector is flushed and the world torn down.
    Deterministic in [i] (and [until]'s answers): same world, same
    metrics, serial or parallel.  Raises [Invalid_argument] when
    [calls] < 1. *)
