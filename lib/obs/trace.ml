(* Bounded ring-buffer event tracer.

   Tracing is off by default and call sites guard event construction
   with [on ()], so the disabled cost is one boolean load.  When
   enabled, events overwrite the oldest entries once the ring is full;
   [dropped] reports how many were lost.  Payloads are plain
   ints/strings so the tracer has no dependency on the simulator
   libraries that publish into it (rings are carried as their integer
   privilege level).

   The ring itself (a {!Ring}) lives in the current domain's {!Sink}
   ({!Trace_state} holds it); this module is the facade
   that keeps the classic global-looking API working while N worlds
   trace concurrently into their own rings. *)

type event = Trace_state.event =
  | Priv_transition of { from_ring : int; to_ring : int; via : string }
  | Fault of { vector : int; detail : string }
  | Module_load of { name : string; mechanism : string }
  | Module_unload of { name : string }
  | Protected_call of { fn : string; outcome : string; cycles : int }
  | Syscall of { number : int; name : string; ret : int }
  | Watchdog_expiry of { used : int; limit : int }
  | Desc_mutation of { table : string; slot : int; action : string }
  | Audit_outcome of { context : string; outcome : string; findings : int }
  | Custom of string

type entry = Trace_state.entry = { seq : int; at_cycles : int; event : event }

let ring () = Sink.trace (Sink.current ())

let entries () = (ring ()).Trace_state.entries

let on () = (ring ()).Trace_state.enabled

let set_enabled b = (ring ()).Trace_state.enabled <- b

let capacity () = Ring.capacity (entries ())

let clear () = Ring.clear (entries ())

(* Oldest first. *)
let events () = Ring.to_list (entries ())

let set_capacity n = Ring.resize (entries ()) n

let emit ?cycles event =
  let r = ring () in
  if r.Trace_state.enabled then Trace_state.emit ?cycles r event

let dropped () = Ring.dropped (entries ())

let length () = Ring.length (entries ())

(* Short machine-readable tag of an event's family, used by the CLI's
   --filter and the JSON emission. *)
let kind_of_event = function
  | Priv_transition _ -> "priv"
  | Fault _ -> "fault"
  | Module_load _ | Module_unload _ -> "module"
  | Protected_call _ -> "call"
  | Syscall _ -> "syscall"
  | Watchdog_expiry _ -> "watchdog"
  | Desc_mutation _ -> "desc"
  | Audit_outcome _ -> "audit"
  | Custom _ -> "custom"

let event_fields = function
  | Priv_transition { from_ring; to_ring; via } ->
      [
        ("from_ring", Json.Int from_ring);
        ("to_ring", Json.Int to_ring);
        ("via", Json.String via);
      ]
  | Fault { vector; detail } ->
      [ ("vector", Json.Int vector); ("detail", Json.String detail) ]
  | Module_load { name; mechanism } ->
      [
        ("name", Json.String name);
        ("mechanism", Json.String mechanism);
        ("loaded", Json.Bool true);
      ]
  | Module_unload { name } ->
      [ ("name", Json.String name); ("loaded", Json.Bool false) ]
  | Protected_call { fn; outcome; cycles } ->
      [
        ("fn", Json.String fn);
        ("outcome", Json.String outcome);
        ("cycles", Json.Int cycles);
      ]
  | Syscall { number; name; ret } ->
      [
        ("number", Json.Int number);
        ("name", Json.String name);
        ("ret", Json.Int ret);
      ]
  | Watchdog_expiry { used; limit } ->
      [ ("used", Json.Int used); ("limit", Json.Int limit) ]
  | Desc_mutation { table; slot; action } ->
      [
        ("table", Json.String table);
        ("slot", Json.Int slot);
        ("action", Json.String action);
      ]
  | Audit_outcome { context; outcome; findings } ->
      [
        ("context", Json.String context);
        ("outcome", Json.String outcome);
        ("findings", Json.Int findings);
      ]
  | Custom s -> [ ("detail", Json.String s) ]

let entry_to_json (e : entry) =
  Json.Obj
    ([
       ("seq", Json.Int e.seq);
       ("at_cycles", Json.Int e.at_cycles);
       ("kind", Json.String (kind_of_event e.event));
     ]
    @ event_fields e.event)

let to_json () =
  Json.Obj
    [
      ("events", Json.List (List.map entry_to_json (events ())));
      ("dropped", Json.Int (dropped ()));
      ("capacity", Json.Int (capacity ()));
    ]

let pp_event ppf = function
  | Priv_transition { from_ring; to_ring; via } ->
      Fmt.pf ppf "priv r%d->r%d via %s" from_ring to_ring via
  | Fault { vector; detail } -> Fmt.pf ppf "fault #%d %s" vector detail
  | Module_load { name; mechanism } ->
      Fmt.pf ppf "module load %s (%s)" name mechanism
  | Module_unload { name } -> Fmt.pf ppf "module unload %s" name
  | Protected_call { fn; outcome; cycles } ->
      Fmt.pf ppf "protected call %s -> %s (%d cycles)" fn outcome cycles
  | Syscall { number; name; ret } ->
      Fmt.pf ppf "syscall %d (%s) = %d" number name ret
  | Watchdog_expiry { used; limit } ->
      Fmt.pf ppf "watchdog expiry: %d > %d cycles" used limit
  | Desc_mutation { table; slot; action } ->
      Fmt.pf ppf "desc %s %s[%d]" action table slot
  | Audit_outcome { context; outcome; findings } ->
      Fmt.pf ppf "audit %s: %s (%d findings)" context outcome findings
  | Custom s -> Fmt.string ppf s

let pp_entry ppf (e : entry) =
  Fmt.pf ppf "[%6d] @%-10d %a" e.seq e.at_cycles pp_event e.event

let dump ppf () =
  let es = events () in
  if es = [] then Fmt.pf ppf "(trace empty%s)@."
      (if on () then "" else "; tracing is disabled")
  else begin
    List.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) es;
    if dropped () > 0 then
      Fmt.pf ppf "(%d older events dropped; ring capacity %d)@." (dropped ())
        (capacity ())
  end
