(* The shared workloads: the fleet world that bench, CLI and tests
   all drive, and the Table 1 mark-window helpers it measures with. *)

let mhz = float_of_int Cycles.mhz

(* The marks one call stamped: the window since the count before it. *)
let marks_of_call app call =
  let cpu = Kernel.cpu (Pbackend.kernel app) in
  let seq = Cpu.mark_seq cpu in
  (match call () with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "call failed: %a" Pbackend.pp_call_error e);
  Cpu.marks_since cpu seq

(* The Table 1 boundaries of one protected call (setup, call, body,
   return, restore, done); fails loudly when a mark is missing. *)
let call_bounds marks =
  match Pbackend.phase_bounds marks with
  | [ Some s; Some c; Some b; Some r; Some rs; Some d ] -> (s, c, b, r, rs, d)
  | _ -> failwith "protected call left an incomplete set of phase marks"

(* The Table 1 total of one call: every phase but the extension body. *)
let call_overhead marks =
  let setup, _, body, return, _, done_ = call_bounds marks in
  done_ - setup - (return - body)

(* One warm null call: load the null extension into [app], resolve
   [null_fn], make one warm-up call (TLB and pages) and return the
   call. *)
let warm_null_call app =
  let ext = Pbackend.load app Ulib.null_image in
  let prepare = Pbackend.resolve app ext "null_fn" in
  let call () = Pbackend.call app ~prepare ~arg:1 in
  ignore (marks_of_call app call);
  call

type world = {
  fw_batches : int;
  fw_calls : int;
  fw_requests : int;
  fw_sim_usec : float;
}

(* Worlds deliberately differ a little (calls/requests derived from
   [i]) so a per-world determinism comparison cannot pass by accident.
   The collector is also ticked at every batch boundary: a short
   protected call retires fewer instructions than the watchdog tick
   period and [Pbackend.call] resets the tick countdown per
   invocation, so the chained tick hook alone would starve. *)
let fleet_world ?collectors ?(bytes = 2048) ~until ~calls ~requests i =
  if calls < 1 then invalid_arg "Workload.fleet_world: calls must be >= 1";
  let calls = calls + (i mod 3) in
  let requests = requests + (32 * (i mod 4)) in
  let c_batches =
    Obs.Counters.counter ~help:"Fleet world workload batches completed"
      "fleet.batches"
  in
  let c_requests =
    Obs.Counters.counter ~help:"Web-server requests completed by fleet worlds"
      "fleet.requests"
  in
  let h_call = Obs.Histogram.get_or_create "fleet.call_cycles" in
  let h_req = Obs.Histogram.get_or_create "fleet.request_usec" in
  let w = Palladium.boot () in
  let app = Palladium.create_backend_app w ~name:(Printf.sprintf "fleet%d" i) in
  let call = warm_null_call app in
  let cpu = Palladium.cpu w in
  let collector = Option.map (fun cs -> cs.(i)) collectors in
  Option.iter (fun c -> Telemetry.attach c cpu) collector;
  (* Requests are priced at the world's first measured warm call: the
     paper charges a LibCGI request one protected call, the Table 1
     cost. *)
  let price = ref None in
  let rec batch n served sim_usec =
    for _ = 1 to calls do
      let cycles = call_overhead (marks_of_call app call) in
      if !price = None then price := Some (float_of_int cycles /. mhz);
      Obs.Histogram.observe h_call cycles
    done;
    let r =
      Server.run ~concurrency:16 ~total:requests ~latency:h_req
        ~invocation:Cgi_model.Libcgi_protected ~bytes
        ~protected_call_usec:(Option.get !price) ()
    in
    Obs.Counters.incr c_batches;
    Obs.Counters.add c_requests r.Server.requests;
    Cpu.charge cpu (int_of_float (r.Server.elapsed_usec *. mhz));
    Option.iter (fun c -> Obs.Collector.tick c ~now:(Cpu.cycles cpu)) collector;
    let n = n + 1 and served = served + r.Server.requests in
    let sim_usec = sim_usec +. r.Server.elapsed_usec in
    if until n then
      {
        fw_batches = n;
        fw_calls = n * calls;
        fw_requests = served;
        fw_sim_usec = sim_usec;
      }
    else batch n served sim_usec
  in
  let result = batch 0 0 0. in
  Option.iter (fun c -> Telemetry.flush c cpu) collector;
  Palladium.teardown w;
  result
