(* CPU-time limits on extension invocations ("to prevent infinite-loop
   bugs in extension routines, Palladium sets a time limit on the
   maximal amount of CPU time that a user/kernel extension module can
   get in each invocation ... enforced through explicit checks at timer
   interrupts", section 4.5.2).

   The check runs every [tick_instrs] simulated instructions, standing
   in for the periodic timer interrupt.  The instruction countdown
   itself lives in the CPU ({!Cpu.set_on_tick}): the block engine can
   then service it with one decrement per slot and stay on its fast
   path between ticks; [check] is the tick-boundary body only. *)

type expiry = { wd_limit : int; wd_used : int }

exception Expired of expiry

type arm = { start_cycles : int; limit_cycles : int }

type t = { mutable armed : arm option; mutable tick_instrs : int }

(* Expiries are counted only here, in the current sink. *)
let c_expirations = Obs.Counters.counter "kern.watchdog.expirations"

(* System-administrator parameter: default invocation budget. *)
let default_limit_cycles = 2_000_000 (* 10 ms at 200 MHz *)

let create ?(tick_instrs = 64) () = { armed = None; tick_instrs }

let tick_instrs t = t.tick_instrs

let arm t ~now ?(limit = default_limit_cycles) () =
  t.armed <- Some { start_cycles = now; limit_cycles = limit }

let disarm t = t.armed <- None

let is_armed t = t.armed <> None

(* Timer-tick body.  Raises {!Expired} when the armed budget has been
   exceeded. *)
let check t ~now =
  match t.armed with
  | None -> ()
  | Some { start_cycles; limit_cycles } ->
      let used = now - start_cycles in
      if used > limit_cycles then begin
        Obs.Counters.incr c_expirations;
        if Obs.Trace.on () then
          Obs.Trace.emit ~cycles:now
            (Obs.Trace.Watchdog_expiry { used; limit = limit_cycles });
        t.armed <- None;
        raise (Expired { wd_limit = limit_cycles; wd_used = used })
      end
