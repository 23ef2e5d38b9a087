(* Per-world observability sink.

   Counter *names and kinds* are process-wide (a metric keeps the same
   identity in every world), but the *values* — and the histogram
   registry, the trace ring and the span recorder — live in a sink.
   Every domain carries a current sink in domain-local storage, so the
   classic module-level API (Counters.incr on a handle resolved at
   module init, Trace.emit, Span.record, Histogram.get_or_create)
   keeps working unchanged while N worlds run concurrently: each world
   executes under [with_sink] and publishes only into its own state.
   [merge] folds a finished world's sink into an aggregate at join
   time. *)

type kind = Counter | Gauge

type descr = {
  d_id : int;
  d_name : string;
  d_kind : kind;
  mutable d_help : string option;
}

(* Global descriptor registry, mutex-guarded so worlds on different
   domains can intern lazily.  Descriptor ids are dense: they index
   the per-sink value arrays. *)
let reg_mutex = Mutex.create ()

let reg : (string, descr) Hashtbl.t = Hashtbl.create 64

let reg_next = ref 0

let register ?help ~kind name =
  Mutex.protect reg_mutex (fun () ->
      match Hashtbl.find_opt reg name with
      | Some d ->
          if d.d_kind <> kind then
            invalid_arg
              (Printf.sprintf
                 "Counters: %s already registered with another kind" name);
          (* first help string wins; late registrations may fill a gap *)
          (match (d.d_help, help) with
          | None, Some _ -> d.d_help <- help
          | _ -> ());
          d
      | None ->
          let d = { d_id = !reg_next; d_name = name; d_kind = kind; d_help = help } in
          incr reg_next;
          Hashtbl.add reg name d;
          d)

let descr_name d = d.d_name

let descr_kind d = d.d_kind

let descr_help d = d.d_help

let find_descr name =
  Mutex.protect reg_mutex (fun () -> Hashtbl.find_opt reg name)

let descrs () =
  Mutex.protect reg_mutex (fun () ->
      Hashtbl.fold (fun _ d acc -> d :: acc) reg [])
  |> List.sort (fun a b -> compare a.d_name b.d_name)

(* Boxed so a hot handle can cache nothing and still publish with one
   store; cells are per-sink, never shared between domains. *)
type cell = { mutable cv : int }

type t = {
  sk_label : string;
  mutable sk_cells : cell array; (* indexed by descriptor id *)
  sk_hists : (string, Histogram.t) Hashtbl.t;
  sk_trace : Trace_state.ring;
  sk_spans : Span_state.t;
}

let sink_seq = Atomic.make 0

let create ?label () =
  let n = Atomic.fetch_and_add sink_seq 1 in
  let label =
    match label with Some l -> l | None -> Printf.sprintf "sink-%d" n
  in
  {
    sk_label = label;
    sk_cells = [||];
    sk_hists = Hashtbl.create 32;
    sk_trace = Trace_state.create_ring Trace_state.default_capacity;
    sk_spans = Span_state.create ();
  }

let label t = t.sk_label

let ensure_cells t n =
  let len = Array.length t.sk_cells in
  if n > len then begin
    let grown =
      Array.init
        (max n (max 16 (2 * len)))
        (fun i -> if i < len then t.sk_cells.(i) else { cv = 0 })
    in
    t.sk_cells <- grown
  end

let cell t (d : descr) =
  ensure_cells t (d.d_id + 1);
  t.sk_cells.(d.d_id)

let value t (d : descr) =
  if d.d_id < Array.length t.sk_cells then t.sk_cells.(d.d_id).cv else 0

let reset_cells t = Array.iter (fun c -> c.cv <- 0) t.sk_cells

(* --- The current sink (domain-local) --------------------------------- *)

let dls_key = Domain.DLS.new_key (fun () -> create ())

let current () = Domain.DLS.get dls_key

let set_current t = Domain.DLS.set dls_key t

let with_sink t f =
  let prev = current () in
  set_current t;
  Fun.protect ~finally:(fun () -> set_current prev) f

(* Route the histogram registry through the current sink.  Runs at
   module-initialisation time, before any simulator code. *)
let () = Histogram.registry_hook := fun () -> (current ()).sk_hists

let trace t = t.sk_trace

let span_state t = t.sk_spans

(* --- Readers ---------------------------------------------------------- *)

let counter_value t name =
  match find_descr name with None -> 0 | Some d -> value t d

(* Nonzero (name, value) pairs, sorted by name — the world's footprint,
   comparable across runs. *)
let counters t =
  List.filter_map
    (fun d ->
      let v = value t d in
      if v = 0 then None else Some (d.d_name, v))
    (descrs ())

let histograms t =
  Hashtbl.fold (fun n h acc -> (n, h) :: acc) t.sk_hists []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find_histogram t name = Hashtbl.find_opt t.sk_hists name

let spans t = Span_state.spans t.sk_spans

let trace_events t = Ring.to_list t.sk_trace.Trace_state.entries

(* --- Join-time aggregation ------------------------------------------- *)

(* Counters and gauges both sum: the merged sink reports fleet totals.
   Histograms merge sample-exactly; completed spans are concatenated
   (ids are globally unique, so parent links stay unambiguous).

   Trace events are replayed into the destination ring with sequence
   numbers reassigned and drop counts carried over — but the ring is
   bounded, so when the fleet's combined event count exceeds its
   capacity the events of the *last* sink merged win and earlier
   worlds' events count as drops.  [~traces:`Drop] skips the replay
   entirely for callers that only want metric aggregation. *)
let merge ?(traces = `Last) ~into src =
  if into == src then invalid_arg "Sink.merge: cannot merge a sink into itself";
  let n = Array.length src.sk_cells in
  ensure_cells into n;
  for i = 0 to n - 1 do
    into.sk_cells.(i).cv <- into.sk_cells.(i).cv + src.sk_cells.(i).cv
  done;
  Hashtbl.iter
    (fun name h ->
      match Hashtbl.find_opt into.sk_hists name with
      | Some h0 -> Hashtbl.replace into.sk_hists name (Histogram.merge h0 h)
      | None ->
          (* merge with an empty histogram to get a private copy *)
          Hashtbl.replace into.sk_hists name
            (Histogram.merge h (Histogram.create ())))
    src.sk_hists;
  (match traces with
  | `Drop -> ()
  | `Last ->
      List.iter
        (fun (e : Trace_state.entry) ->
          Trace_state.emit ~cycles:e.at_cycles into.sk_trace e.event)
        (trace_events src);
      Ring.add_dropped into.sk_trace.entries (Ring.dropped src.sk_trace.entries));
  Span_state.absorb into.sk_spans src.sk_spans
