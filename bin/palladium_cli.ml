(* Command-line interface to the Palladium reproduction: run the
   individual experiments with custom parameters.

       dune exec bin/palladium_cli.exe -- <command> [options]

   (The full paper-table regeneration lives in bench/main.exe.) *)

open Cmdliner

let mhz = float_of_int Cycles.mhz

(* --- --engine: execution-engine selection ----------------------------- *)

(* Every command that boots a simulated CPU takes [--engine]; the
   default comes from [Bexec] (blocks, or $PALLADIUM_ENGINE).  Both
   engines produce bit-identical architectural results — cycles,
   registers, faults, counters — so the flag only changes how fast the
   simulation itself runs. *)
let engine_conv =
  let parse s =
    match Bexec.engine_of_string s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg (Printf.sprintf "invalid engine %S (expected interp or blocks)" s))
  in
  let print ppf e = Format.pp_print_string ppf (Bexec.engine_to_string e) in
  Arg.conv (parse, print)

let engine_flag =
  Arg.(
    value
    & opt engine_conv (Bexec.get_default_engine ())
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine for the simulated CPU: $(b,interp) single-steps \
           every instruction; $(b,blocks) (the default) dispatches cached \
           basic blocks with identical architectural results.")

let set_engine = Bexec.set_default_engine

(* --- --backend: protection-backend selection -------------------------- *)

(* Commands hosting extensible applications also take [--backend]; the
   default comes from [Pbackend] ($PALLADIUM_BACKEND or seg).  Unlike
   --engine, backends are *architecturally* different mechanisms — the
   flag changes which protection hardware the compartment boundary
   uses, while workload outputs (results, request counts, fault
   classes) must stay identical. *)
let backend_conv =
  let parse s =
    match Pbackend.kind_of_string s with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
             (Printf.sprintf "invalid backend %S (expected %s)" s
                Pbackend.expected))
  in
  let print ppf b = Format.pp_print_string ppf (Pbackend.kind_name b) in
  Arg.conv (parse, print)

let backend_flag =
  Arg.(
    value
    & opt backend_conv (Pbackend.default ())
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Protection backend for extensible applications: $(b,seg) (the \
           paper's segmentation mechanism, the default) or $(b,mpk) \
           (protection keys with wrpkru entry stubs).  The SFI comparators \
           live in bench backends.  Defaults from \\$PALLADIUM_BACKEND.")

let set_backend = Pbackend.set_default

(* --- call: measure a protected null call ----------------------------- *)

(* Cycles of [iterations] warm protected null calls in a fresh
   application of world [w]. *)
let null_call_samples w ~name iterations =
  let app = Palladium.create_backend_app w ~name in
  let ext = Pbackend.load app Ulib.null_image in
  let prepare = Pbackend.resolve app ext "null_fn" in
  ignore (Pbackend.call app ~prepare ~arg:0);
  List.init iterations (fun _ ->
      match Pbackend.call app ~prepare ~arg:0 with
      | Ok (_, cycles) -> float_of_int cycles
      | Error e -> Fmt.failwith "%a" Pbackend.pp_call_error e)

let run_call iterations =
  let w = Palladium.boot () in
  let samples = null_call_samples w ~name:"cli" iterations in
  Printf.printf
    "protected null call (%s backend): mean %.1f cycles (%.3f usec), stddev \
     %.2f, %d runs\n"
    (Pbackend.kind_name (Palladium.backend w))
    (Stats.mean samples)
    (Stats.mean samples /. mhz)
    (Stats.stddev samples) iterations

let call_cmd =
  let iterations =
    Arg.(value & opt int 100 & info [ "n"; "iterations" ] ~doc:"Number of runs.")
  in
  Cmd.v
    (Cmd.info "call" ~doc:"Measure the protected procedure call cost (Table 1).")
    Term.(
      const (fun e b n ->
          set_engine e;
          set_backend b;
          run_call n)
      $ engine_flag $ backend_flag $ iterations)

(* --- filter: packet filtering sweep ----------------------------------- *)

let run_filter terms count match_percent budget_policy budget_cycles =
  if terms < 0 || terms > 6 then (
    prerr_endline "palladium: --terms must be between 0 and 6";
    exit 2);
  if count <= 0 then (
    prerr_endline "palladium: --count must be positive";
    exit 2);
  let budget_policy =
    match budget_policy with
    | None -> None
    | Some s -> (
        match Pconfig.budget_policy_of_string s with
        | Some p -> Some p
        | None ->
            Printf.eprintf
              "palladium: invalid --budget-policy %S (expected \
               off|warn|reject)\n"
              s;
            exit 2)
  in
  let w = Palladium.boot () in
  let kernel = Palladium.kernel w in
  let task = Kernel.create_task kernel ~name:"netd" in
  let filter = Filter_expr.canonical terms in
  Fmt.pr "filter: %a\n" Filter_expr.pp filter;
  let interp = Bpf_asm_interp.load kernel in
  Bpf_asm_interp.set_program interp (Filter_expr.to_bpf_tcpdump filter);
  (* The budget gates the *extension*: the interpreter baseline above
     is ordinary kernel code (its dispatch loop is honestly unbounded
     and would never pass), so the overrides land after it loads. *)
  (match budget_policy with
  | Some p -> Kernel.set_policy_override kernel ~name:"budget" (Vcost.policy_name p)
  | None -> ());
  (match budget_cycles with
  | Some n ->
      Kernel.set_policy_override kernel ~name:"budget_cycles" (string_of_int n)
  | None -> ());
  let seg = Palladium.create_kernel_segment w in
  let native =
    try Native_compile.load seg filter
    with Vcost.Over_budget (msg, b) ->
      Fmt.epr
        "palladium: compiled filter rejected by budget admission: %s@.  \
         certified bounds: %a@."
        msg Vcost.pp_bounds b;
      exit 3
  in
  let gen = Pkt_gen.create () in
  let bpf_total = ref 0 and nat_total = ref 0 and matches = ref 0 in
  List.iter
    (fun pkt ->
      let bytes = Packet.to_bytes pkt in
      Bpf_asm_interp.set_packet interp bytes;
      let v, c = Bpf_asm_interp.run interp task in
      bpf_total := !bpf_total + c;
      if v <> 0 then incr matches;
      match Native_compile.run native task ~packet:bytes with
      | Ok (_, c) -> nat_total := !nat_total + c
      | Error e -> Fmt.failwith "%a" Kernel_ext.pp_invoke_error e)
    (Pkt_gen.stream gen ~count ~match_percent);
  Printf.printf
    "%d packets (%d matched): BPF %.1f cycles/pkt, compiled extension %.1f cycles/pkt (%.2fx)\n"
    count !matches
    (float_of_int !bpf_total /. float_of_int count)
    (float_of_int !nat_total /. float_of_int count)
    (float_of_int !bpf_total /. float_of_int !nat_total)

let filter_cmd =
  let terms =
    Arg.(value & opt int 4 & info [ "t"; "terms" ] ~doc:"Conjunction terms (0-6).")
  in
  let count =
    Arg.(value & opt int 100 & info [ "c"; "count" ] ~doc:"Packets to filter.")
  in
  let pct =
    Arg.(value & opt int 25 & info [ "m"; "match" ] ~doc:"Matching packet percentage.")
  in
  let budget_policy =
    Arg.(
      value
      & opt (some string) None
      & info [ "budget-policy" ] ~docv:"POLICY"
          ~doc:
            "Resource-budget admission policy for the compiled extension: \
             off, warn or reject (default: the PALLADIUM_BUDGET \
             environment).  Under reject, a filter whose certified WCET is \
             unbounded or above the cycle budget never loads.")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"CYCLES"
          ~doc:
            "Per-invocation cycle budget the certified WCET is admitted \
             against (and the watchdog fuel clamp).")
  in
  Cmd.v
    (Cmd.info "filter" ~doc:"Packet filter: BPF interpreter vs compiled extension (Figure 7).")
    Term.(
      const (fun e b t c m bp bc ->
          set_engine e;
          set_backend b;
          run_filter t c m bp bc)
      $ engine_flag $ backend_flag $ terms $ count $ pct $ budget_policy
      $ budget)

(* --- webserver: throughput experiment ----------------------------------- *)

(* Mean protected null-call cost in usec of simulated time under one
   backend — the per-request protection cost the web-server model
   charges Libcgi_protected. *)
let null_call_usec ?(iterations = 40) backend =
  let w = Palladium.boot ~backend () in
  let samples = null_call_samples w ~name:"probe" iterations in
  Palladium.teardown w;
  Stats.mean samples /. mhz

let run_webserver backend bytes concurrency total deadline wcet =
  let models =
    [
      Cgi_model.Cgi; Cgi_model.Fast_cgi; Cgi_model.Libcgi_protected;
      Cgi_model.Libcgi; Cgi_model.Static;
    ]
  in
  let pc_usec = null_call_usec backend in
  Printf.printf
    "file size %d bytes, %d requests, %d concurrent (%s backend: protected \
     call %.2f usec):\n"
    bytes total concurrency
    (Pbackend.kind_name backend)
    pc_usec;
  List.iter
    (fun inv ->
      let r =
        Server.run ~concurrency ~total ?deadline_usec:deadline
          ?handler_wcet_usec:wcet ~invocation:inv ~bytes
          ~protected_call_usec:pc_usec ()
      in
      Printf.printf "  %-22s %7.0f req/s  (cpu %.0f%%, link %.0f%%)%s\n"
        (Cgi_model.name inv) r.Server.throughput_rps
        (100.0 *. r.Server.cpu_utilisation)
        (100.0 *. r.Server.link_utilisation)
        (if deadline <> None then
           Printf.sprintf "  shed %d/%d" r.Server.shed total
         else ""))
    models

let webserver_cmd =
  let bytes =
    Arg.(value & opt int 1024 & info [ "s"; "size" ] ~doc:"Response size in bytes.")
  in
  let conc =
    Arg.(value & opt int 30 & info [ "c"; "concurrency" ] ~doc:"Concurrent clients.")
  in
  let total =
    Arg.(value & opt int 1000 & info [ "n"; "requests" ] ~doc:"Total requests.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"USEC"
          ~doc:"Per-request deadline for WCET admission control.")
  in
  let wcet =
    Arg.(
      value
      & opt (some float) None
      & info [ "wcet" ] ~docv:"USEC"
          ~doc:
            "Certified per-handler worst case; with --deadline, requests \
             whose worst-case completion already misses the deadline are \
             shed at arrival.")
  in
  Cmd.v
    (Cmd.info "webserver" ~doc:"CGI invocation-model throughput (Table 3).")
    Term.(
      const (fun b s c n d w ->
          set_backend b;
          run_webserver b s c n d w)
      $ backend_flag $ bytes $ conc $ total $ deadline $ wcet)

(* --- fleet: N isolated web-server worlds across domains ------------------ *)

(* Bounded mode (no --duration): one fixed request sweep per world,
   run twice (serial then parallel) for the determinism check. *)
let run_fleet worlds domains bytes requests =
  let pc_usec = null_call_usec (Pbackend.default ()) in
  let world _i =
    let w = Palladium.boot () in
    let latency = Obs.Histogram.get_or_create "fleet.request_usec" in
    let r =
      Server.run ~total:requests ~latency
        ~invocation:Cgi_model.Libcgi_protected ~bytes
        ~protected_call_usec:pc_usec ()
    in
    Palladium.teardown w;
    r
  in
  let serial = Fleet.run ~domains:1 ~worlds world in
  let par = Fleet.run ?domains ~worlds world in
  Printf.printf "%d worlds over %d domains (%d cores):\n" worlds
    par.Fleet.f_domains
    (Domain.recommended_domain_count ());
  List.iter
    (fun wr ->
      let r = wr.Fleet.wr_value in
      Printf.printf "  world %-2d %7.0f req/s  (%d requests, %.3fs)\n"
        wr.Fleet.wr_world r.Server.throughput_rps r.Server.requests
        wr.Fleet.wr_elapsed)
    (Fleet.results par);
  (match Obs.Sink.find_histogram (Fleet.merged par) "fleet.request_usec" with
  | Some h ->
      let p q =
        match Obs.Histogram.percentile h q with
        | Some v -> string_of_int v
        | None -> "n/a"
      in
      Printf.printf "  merged latency: %d samples, p50 %s usec, p99 %s usec\n"
        (Obs.Histogram.count h) (p 50.0) (p 99.0)
  | None -> ());
  let div = Fleet.divergences serial par in
  Printf.printf "  serial %.3fs, parallel %.3fs -> speedup %.2fx; %s\n"
    (Fleet.elapsed serial) (Fleet.elapsed par)
    (Fleet.speedup ~serial:(Fleet.elapsed serial)
       ~parallel:(Fleet.elapsed par))
    (if div = [] then "per-world results identical to the serial run"
     else "per-world results DIVERGED from the serial run")

(* Long-running mode (--duration): every world loops batches of
   protected calls plus a web-server slice until the wall-clock
   deadline, with a telemetry collector chained onto its kernel CPU
   tick (sampling on *simulated* cycle boundaries, so each world's
   series stays deterministic).  The coordinator meanwhile answers
   GET /metrics and GET /timeseries.json, appends fresh merged points
   to a JSONL stream, and joins the fleet at the deadline. *)

let calls_per_batch = 100

let requests_per_batch = 250

let run_fleet_live worlds domains bytes duration sample_ms serve_port
    jsonl_path expect_samples out_dir =
  if worlds < 1 then (
    prerr_endline "palladium: fleet --duration needs at least one world";
    exit 2);
  let every = max 1 sample_ms * Cycles.mhz * 1000 in
  let collectors = Array.init worlds (fun _ -> Obs.Collector.create ~every ()) in
  let c_requests =
    Obs.Counters.counter ~help:"Web-server requests completed by fleet worlds"
      "fleet.requests"
  in
  let c_batches =
    Obs.Counters.counter ~help:"Fleet world workload batches completed"
      "fleet.batches"
  in
  let pc_usec = null_call_usec (Pbackend.default ()) in
  let world i =
    let w = Palladium.boot () in
    let kcpu = Kernel.cpu (Palladium.kernel w) in
    Telemetry.attach collectors.(i) kcpu;
    let app = Palladium.create_backend_app w ~name:(Printf.sprintf "fleet-%d" i) in
    let ext = Pbackend.load app Ulib.null_image in
    let prepare = Pbackend.resolve app ext "null_fn" in
    let h_call = Obs.Histogram.get_or_create "fleet.call_cycles" in
    let latency = Obs.Histogram.get_or_create "fleet.request_usec" in
    let deadline = Unix.gettimeofday () +. duration in
    let batches = ref 0 and requests = ref 0 in
    while Unix.gettimeofday () < deadline do
      for _ = 1 to calls_per_batch do
        let t0 = Cpu.cycles kcpu in
        (match Pbackend.call app ~prepare ~arg:0 with
        | Ok _ -> ()
        | Error e -> Fmt.failwith "%a" Pbackend.pp_call_error e);
        Obs.Histogram.observe h_call (Cpu.cycles kcpu - t0)
      done;
      let r =
        Server.run ~total:requests_per_batch ~latency
          ~invocation:Cgi_model.Libcgi_protected ~bytes
          ~protected_call_usec:pc_usec ()
      in
      Obs.Counters.add c_requests r.Server.requests;
      requests := !requests + r.Server.requests;
      Obs.Counters.incr c_batches;
      incr batches;
      (* The slice ran on this world's (simulated) CPU: advance its
         clock by the slice's simulated duration so sample boundaries
         track offered load.  Short protected calls reset the tick
         countdown per invocation, so the chained tick hook alone
         fires only inside long extension invocations — the batch
         boundary is this workload's reliable sampling point. *)
      Cpu.charge kcpu (int_of_float (r.Server.elapsed_usec *. mhz));
      Obs.Collector.tick collectors.(i) ~now:(Cpu.cycles kcpu)
    done;
    Telemetry.flush collectors.(i) kcpu;
    Palladium.teardown w;
    (!batches, !requests)
  in
  let cs = Array.to_list collectors in
  let live_metrics () =
    let sink = Obs.Collector.merged_sink cs in
    Obs.Sink.with_sink sink (fun () -> Obs.Export.prometheus ())
  in
  let route path =
    match path with
    | "/metrics" ->
        Some ("text/plain; version=0.0.4; charset=utf-8", live_metrics ())
    | "/timeseries.json" ->
        Some
          ( "application/json",
            Obs.Json.pretty
              (Obs.Timeseries.to_json (Obs.Collector.merged_series cs)) )
    | "/" | "/index.html" ->
        Some
          ( "text/plain",
            "palladium live fleet\n\
            \  GET /metrics          Prometheus text exposition (merged live \
             sink)\n\
            \  GET /timeseries.json  sampled per-metric series (merged)\n" )
    | _ -> None
  in
  let srv = Option.map (fun p -> Obs.Serve.create ~port:p route) serve_port in
  Option.iter
    (fun s ->
      Printf.printf "serving http://127.0.0.1:%d  (/metrics, /timeseries.json)\n%!"
        (Obs.Serve.port s))
    srv;
  let jsonl =
    Option.map (fun p -> open_out_gen [ Open_append; Open_creat ] 0o644 p)
      jsonl_path
  in
  let flushed : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let t_start = Unix.gettimeofday () in
  (* One JSONL line per beat with fresh points only: each series
     appears with the points strictly newer than the last line. *)
  let flush_jsonl () =
    match jsonl with
    | None -> ()
    | Some oc ->
        let ts = Obs.Collector.merged_series cs in
        let fresh =
          List.filter_map
            (fun name ->
              let after =
                Option.value (Hashtbl.find_opt flushed name) ~default:min_int
              in
              match Obs.Timeseries.points_since ts name ~after with
              | [] -> None
              | pts ->
                  Hashtbl.replace flushed name
                    (List.fold_left
                       (fun m (p : Obs.Timeseries.point) ->
                         max m p.Obs.Timeseries.p_t)
                       after pts);
                  Some
                    (Obs.Json.Obj
                       [
                         ("name", Obs.Json.String name);
                         ( "points",
                           Obs.Json.List
                             (List.map Obs.Timeseries.json_of_point pts) );
                       ]))
            (Obs.Timeseries.names ts)
        in
        if fresh <> [] then begin
          output_string oc
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [
                    ( "at_wall_sec",
                      Obs.Json.Float (Unix.gettimeofday () -. t_start) );
                    ("series", Obs.Json.List fresh);
                  ]));
          output_char oc '\n';
          flush oc
        end
  in
  Printf.printf
    "%d worlds, %.1fs wall deadline, sampling every %d simulated ms (%d cycles)\n%!"
    worlds duration sample_ms every;
  let handle = Fleet.start ?domains ~worlds world in
  while not (Fleet.finished handle) do
    (match srv with Some s -> ignore (Obs.Serve.poll s) | None -> ());
    flush_jsonl ();
    Unix.sleepf 0.05
  done;
  let fl = Fleet.join handle in
  flush_jsonl ();
  (match srv with
  | Some s ->
      ignore (Obs.Serve.poll s);
      Printf.printf "  served %d http request%s\n" (Obs.Serve.served s)
        (if Obs.Serve.served s = 1 then "" else "s");
      Obs.Serve.close s
  | None -> ());
  Option.iter close_out jsonl;
  List.iter
    (fun wr ->
      let b, r = wr.Fleet.wr_value in
      Printf.printf "  world %-2d %6d batches, %8d requests, %.2fs\n"
        wr.Fleet.wr_world b r wr.Fleet.wr_elapsed)
    (Fleet.results fl);
  let merged_ts = Obs.Collector.merged_series cs in
  (* Non-empty samples: distinct timestamps where at least one counter
     moved.  Monotonicity: totals never decrease, deltas never
     negative, per counter series. *)
  let nonempty_stamps = Hashtbl.create 64 in
  let monotone_violations = ref [] in
  List.iter
    (fun name ->
      let last = ref 0 in
      List.iter
        (fun (p : Obs.Timeseries.point) ->
          match p.Obs.Timeseries.p_v with
          | Obs.Timeseries.Counter { delta; total } ->
              if delta > 0 then Hashtbl.replace nonempty_stamps p.Obs.Timeseries.p_t ();
              if delta < 0 || total < !last then
                monotone_violations := name :: !monotone_violations;
              last := total
          | _ -> ())
        (Obs.Timeseries.points merged_ts name))
    (Obs.Timeseries.names merged_ts);
  let nonempty = Hashtbl.length nonempty_stamps in
  let violations = List.sort_uniq compare !monotone_violations in
  Printf.printf
    "  sampled series: %d series, %d non-empty sample boundaries, counter \
     deltas %s\n"
    (List.length (Obs.Timeseries.names merged_ts))
    nonempty
    (if violations = [] then "monotone"
     else "NON-MONOTONE: " ^ String.concat ", " violations);
  (match Obs.Sink.find_histogram (Fleet.merged fl) "fleet.request_usec" with
  | Some h ->
      let p q =
        match Obs.Histogram.percentile h q with
        | Some v -> string_of_int v
        | None -> "n/a"
      in
      Printf.printf "  merged latency: %d samples, p50 %s usec, p99 %s usec\n"
        (Obs.Histogram.count h) (p 50.0) (p 99.0)
  | None -> ());
  (match out_dir with
  | None -> ()
  | Some dir ->
      let merged_sink = Fleet.merged fl in
      let path =
        Obs.Sink.with_sink merged_sink (fun () ->
            Obs.Bench_json.write ~dir ~name:"timeline" ~since:[]
              ?histogram:
                (Option.map
                   (fun h -> ("fleet.call_cycles", h))
                   (Obs.Sink.find_histogram merged_sink "fleet.call_cycles"))
              ~body:
                [
                  ("mode", Obs.Json.String "fleet-live");
                  ("worlds", Obs.Json.Int worlds);
                  ("domains", Obs.Json.Int fl.Fleet.f_domains);
                  ("duration_sec", Obs.Json.Float duration);
                  ("sample_every_ms", Obs.Json.Int sample_ms);
                  ("sample_every_cycles", Obs.Json.Int every);
                  ("nonempty_samples", Obs.Json.Int nonempty);
                  ("series", Obs.Timeseries.to_json merged_ts);
                ]
              ())
      in
      Printf.printf "  wrote %s\n" path);
  match expect_samples with
  | None -> ()
  | Some n ->
      if violations <> [] then begin
        Printf.printf
          "FAIL: counter series not monotone: %s\n"
          (String.concat ", " violations);
        exit 1
      end;
      if nonempty < n then begin
        Printf.printf "FAIL: only %d non-empty sample boundaries (expected >= %d)\n"
          nonempty n;
        exit 1
      end;
      Printf.printf "OK: %d non-empty sample boundaries (>= %d), deltas monotone\n"
        nonempty n

let fleet_cmd =
  let worlds =
    Arg.(value & opt int 4 & info [ "w"; "worlds" ] ~doc:"Isolated worlds to boot.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "d"; "domains" ]
          ~doc:"OCaml domains to shard over (default: available cores).")
  in
  let bytes =
    Arg.(value & opt int 1024 & info [ "s"; "size" ] ~doc:"Response size in bytes.")
  in
  let total =
    Arg.(value & opt int 1000 & info [ "n"; "requests" ] ~doc:"Requests per world.")
  in
  let duration =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:
            "Long-running mode: worlds loop their workload (batches of \
             protected calls plus a web-server slice) until this wall-clock \
             deadline, with live telemetry sampled on simulated-time \
             boundaries.  Without it the fleet runs one bounded sweep per \
             world (serial and parallel, with a determinism check).")
  in
  let sample_every =
    Arg.(
      value
      & opt int 50
      & info [ "sample-every" ] ~docv:"MS"
          ~doc:
            "Telemetry sampling interval in $(i,simulated) milliseconds \
             (long-running mode only).")
  in
  let serve =
    Arg.(
      value
      & opt (some int) None
      & info [ "serve" ] ~docv:"PORT"
          ~doc:
            "Answer GET /metrics (Prometheus text exposition over the merged \
             live sink) and GET /timeseries.json on 127.0.0.1:PORT while the \
             fleet runs (0 binds an ephemeral port).")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"PATH"
          ~doc:
            "Append one JSON line of freshly sampled merged points per \
             flusher beat to PATH (headless CI streaming).")
  in
  let expect =
    Arg.(
      value
      & opt (some int) None
      & info [ "expect-samples" ] ~docv:"N"
          ~doc:
            "After the run, fail (exit 1) unless at least N non-empty sample \
             boundaries were recorded and every counter series is monotone.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write a BENCH_timeline.json artifact of the sampled series to DIR.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Boot N isolated worlds, each serving a LibCGI-protected web-server \
          sweep, sharded across OCaml domains; report per-world and merged \
          metrics plus serial-vs-parallel speedup.  With $(b,--duration), \
          promote the fleet to a long-running mode with live telemetry \
          sampling, streaming Prometheus exposition ($(b,--serve)) and JSONL \
          flushing ($(b,--jsonl)).")
    Term.(
      const (fun e bk w d b n dur sample srv jl exp out ->
          set_engine e;
          set_backend bk;
          match dur with
          | None -> run_fleet w d b n
          | Some duration ->
              run_fleet_live w d b duration sample srv jl exp out)
      $ engine_flag $ backend_flag $ worlds $ domains $ bytes $ total
      $ duration $ sample_every $ serve $ jsonl $ expect $ out)

(* --- rpc ------------------------------------------------------------------ *)

let run_rpc bytes =
  Printf.printf "Linux socket RPC round trip, %d bytes: %.2f usec\n" bytes
    (Rpc.round_trip_usec ~bytes);
  let b = Rpc.breakdown ~bytes in
  Printf.printf
    "  syscalls %.1f + stack %.1f + switches %.1f + marshal %.1f + dispatch %.1f + wakeups %.1f + copies %.1f\n"
    b.Rpc.syscalls b.Rpc.stack b.Rpc.switches b.Rpc.marshal b.Rpc.dispatch
    b.Rpc.wakeups b.Rpc.copies

let rpc_cmd =
  let bytes =
    Arg.(value & opt int 32 & info [ "s"; "size" ] ~doc:"Payload bytes.")
  in
  Cmd.v
    (Cmd.info "rpc" ~doc:"Socket RPC cost breakdown (Table 2 baseline).")
    Term.(const run_rpc $ bytes)

(* --- stats: counter registry after a workload ------------------------------ *)

(* Exercise the full protection pipeline once so every counter family
   has something to show: a protected null call crosses rings both
   ways, walks pages, loads descriptors and makes syscalls. *)
let run_workload ~iterations ~with_fault =
  let w = Palladium.boot () in
  let app = Palladium.create_backend_app w ~name:"cli" in
  let ext = Pbackend.load app Ulib.null_image in
  let prepare = Pbackend.resolve app ext "null_fn" in
  for _ = 1 to max 1 iterations do
    ignore (Pbackend.call app ~prepare ~arg:0)
  done;
  if with_fault then begin
    (* an extension store to hidden application memory: SIGSEGV path *)
    let area =
      Address_space.mmap (Pbackend.task app).Task.asp ~len:4096
        ~perms:Vm_area.rw Vm_area.Data
    in
    Address_space.populate (Pbackend.task app).Task.asp area;
    let rogue = Pbackend.load app Ulib.rogue_write_image in
    let poke = Pbackend.resolve app rogue "poke" in
    ignore (Pbackend.call app ~prepare:poke ~arg:area.Vm_area.va_start)
  end

let run_stats iterations with_fault =
  run_workload ~iterations ~with_fault;
  Fmt.pr "%a@." Obs.Counters.pp ()

let stats_cmd =
  let iterations =
    Arg.(
      value & opt int 10
      & info [ "n"; "iterations" ] ~doc:"Protected calls to run.")
  in
  let with_fault =
    Arg.(
      value & flag
      & info [ "fault" ] ~doc:"Also trigger a protection fault (SIGSEGV path).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a protected-call workload and print the global event counters \
          (TLB, page walks, privilege crossings, syscalls, faults).")
    Term.(
      const (fun e b n f ->
          set_engine e;
          set_backend b;
          run_stats n f)
      $ engine_flag $ backend_flag $ iterations $ with_fault)

(* --- trace: event ring buffer dump ----------------------------------------- *)

let trace_kinds =
  [
    "priv"; "fault"; "module"; "call"; "syscall"; "watchdog"; "desc"; "audit";
    "custom";
  ]

let run_trace iterations with_fault capacity json filter =
  (match filter with
  | Some k when not (List.mem k trace_kinds) ->
      Printf.eprintf "palladium: unknown --filter kind %S (expected %s)\n" k
        (String.concat "|" trace_kinds);
      exit 2
  | _ -> ());
  Obs.Trace.set_capacity capacity;
  Obs.Trace.set_enabled true;
  run_workload ~iterations ~with_fault;
  Obs.Trace.set_enabled false;
  let keep (e : Obs.Trace.entry) =
    match filter with
    | None -> true
    | Some k -> String.equal (Obs.Trace.kind_of_event e.Obs.Trace.event) k
  in
  let entries = List.filter keep (Obs.Trace.events ()) in
  if json then
    print_endline
      (Obs.Json.pretty
         (Obs.Json.Obj
            [
              ( "events",
                Obs.Json.List (List.map Obs.Trace.entry_to_json entries) );
              ("dropped", Obs.Json.Int (Obs.Trace.dropped ()));
              ("capacity", Obs.Json.Int (Obs.Trace.capacity ()));
            ]))
  else begin
    List.iter (fun e -> Fmt.pr "%a@." Obs.Trace.pp_entry e) entries;
    if Obs.Trace.dropped () > 0 then
      Fmt.pr "(%d older events dropped; raise --capacity to keep more)@."
        (Obs.Trace.dropped ())
  end

let trace_cmd =
  let iterations =
    Arg.(
      value & opt int 2
      & info [ "n"; "iterations" ] ~doc:"Protected calls to run.")
  in
  let with_fault =
    Arg.(
      value & flag
      & info [ "fault" ] ~doc:"Also trigger a protection fault (SIGSEGV path).")
  in
  let capacity =
    Arg.(
      value & opt int 1024
      & info [ "capacity" ] ~doc:"Ring buffer capacity (events).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the ring as JSON instead of text.")
  in
  let filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter" ] ~docv:"KIND"
          ~doc:
            "Only show events of one kind: priv, fault, module, call, \
             syscall, watchdog or custom.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a protected-call workload with event tracing on and dump the \
          ring buffer (privilege transitions, module loads, protected calls, \
          faults, syscalls).")
    Term.(
      const (fun e b n f c j k ->
          set_engine e;
          set_backend b;
          run_trace n f c j k)
      $ engine_flag $ backend_flag $ iterations $ with_fault $ capacity $ json
      $ filter)

(* --- profile: span profiler over a workload -------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "[%s]\n" path

let profile_workloads = [ "protected-call"; "fault"; "filter"; "webserver" ]

(* Run one workload with span profiling on, then export the timeline
   three ways: Chrome trace-event JSON (load in Perfetto), Prometheus
   text exposition (counters + per-span histograms) and folded stacks
   (pipe to flamegraph.pl).  Cycle-domain workloads export timestamps
   in microseconds of simulated time; the webserver workload is
   already in DES microseconds. *)
let run_profile workload iterations out_dir =
  if not (List.mem workload profile_workloads) then begin
    Printf.eprintf "palladium: unknown workload %S (expected %s)\n" workload
      (String.concat "|" profile_workloads);
    exit 2
  end;
  Obs.Span.clear ();
  Obs.Histogram.reset_all ();
  Obs.Span.set_enabled true;
  let ts_scale =
    match workload with
    | "webserver" ->
        ignore
          (Server.run ~concurrency:30
             ~total:(max 1 iterations * 10)
             ~invocation:Cgi_model.Libcgi_protected ~bytes:1024
             ~protected_call_usec:0.72 ());
        1.0
    | "filter" ->
        run_filter 4 (max 1 iterations * 4) 25 None None;
        1.0 /. mhz
    | "fault" ->
        run_workload ~iterations ~with_fault:true;
        1.0 /. mhz
    | _ ->
        run_workload ~iterations ~with_fault:false;
        1.0 /. mhz
  in
  Obs.Span.set_enabled false;
  let spans = Obs.Span.spans () in
  Printf.printf "%d spans over %d %s iterations\n" (List.length spans)
    (max 1 iterations) workload;
  let out suffix = Filename.concat out_dir ("PROFILE_" ^ workload ^ suffix) in
  write_file (out ".trace.json")
    (Obs.Json.pretty (Obs.Export.chrome_trace ~ts_scale spans));
  write_file (out ".prom.txt") (Obs.Export.prometheus ());
  write_file (out ".folded") (Obs.Export.folded spans);
  Fmt.pr "%a" Obs.Export.pp_histograms ()

let profile_cmd =
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"One of: protected-call, fault, filter, webserver.")
  in
  let iterations =
    Arg.(
      value & opt int 10 & info [ "n"; "iterations" ] ~doc:"Workload iterations.")
  in
  let out_dir =
    Arg.(
      value & opt string "."
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile a workload with cycle-stamped spans and write a Chrome \
          trace (Perfetto), a Prometheus exposition and folded stacks for \
          flamegraphs.")
    Term.(
      const (fun e b w n o ->
          set_engine e;
          set_backend b;
          run_profile w n o)
      $ engine_flag $ backend_flag $ workload $ iterations $ out_dir)

(* --- verify: load-time verifier reports ------------------------------------ *)

let image_externs (image : Image.t) =
  let data_names =
    List.map (fun (d : Image.data_item) -> d.Image.d_name) image.Image.data
    @ List.map (fun (b : Image.bss_item) -> b.Image.b_name) image.Image.bss
  in
  fun name -> List.mem name data_names || List.mem name image.Image.imports

(* Verify an image the way the extension loaders do: entries from the
   exports, externs from the image's own symbol tables, the region
   sized like a kernel extension segment. *)
let report_of ?(require_termination = false) (image : Image.t) =
  Verify.verify ~entries:image.Image.exports ~externs:(image_externs image)
    ~region:(0, Pconfig.kernel_ext_segment_bytes)
    ~allowed_far:(fun _ -> true)
    ~require_termination ~name:image.Image.name image.Image.text

(* Hand-built demos for the unsafe classes no shipped extension
   exhibits (the rogue extensions rely on run-time protection; these
   are the ones the verifier must catch statically). *)
let oob_store_image =
  let open Asm in
  Image.create ~name:"oobstore" ~exports:[ "oob" ]
    [
      L "oob";
      I (Instr.Mov (Operand.Reg Reg.EAX, Operand.Imm Pconfig.kernel_ext_segment_bytes));
      I (Instr.Mov (Operand.deref Reg.EAX, Operand.Imm 1));
      I Instr.Ret;
    ]

let unbalanced_image =
  let open Asm in
  Image.create ~name:"unbalanced" ~exports:[ "leak" ]
    [ L "leak"; I (Instr.Push (Operand.Reg Reg.EAX)); I Instr.Ret ]

let indirect_image =
  let open Asm in
  Image.create ~name:"indirect" ~exports:[ "anywhere" ]
    [ L "anywhere"; I (Instr.Jmp_ind (Operand.Reg Reg.EAX)) ]

(* (name, verdict the verifier must reach, report thunk) *)
let verify_catalogue : (string * bool * (unit -> Verify.report)) list =
  [
    ("null", true, fun () -> report_of Ulib.null_image);
    ("strrev", true, fun () -> report_of Ulib.strrev_image);
    ("libc", true, fun () -> report_of Ulib.libc_image);
    ("lenclient", true, fun () -> report_of Ulib.strlen_client_image);
    ("counter", true, fun () -> report_of Ulib.counter_image);
    ( "svcclient",
      true,
      fun () -> report_of (Ulib.service_client_image ~slot_addr:0x2000) );
    ("work", true, fun () -> report_of (Ulib.work_image ~units:64));
    ( "cfilter",
      true,
      fun () -> report_of (Native_compile.image (Filter_expr.canonical 4)) );
    ("roguewrite", true, fun () -> report_of Ulib.rogue_write_image);
    ("rogueread", true, fun () -> report_of Ulib.rogue_read_image);
    ("rogueloop", true, fun () -> report_of Ulib.rogue_loop_image);
    ( "strrev-sfi",
      true,
      fun () ->
        report_of
          (Sfi.sandbox_image Sfi.Write_only
             { Sfi.base = 0; size = Pconfig.kernel_ext_segment_bytes }
             Ulib.strrev_image) );
    ("roguesys", false, fun () -> report_of Ulib.rogue_syscall_image);
    ("roguejmp", false, fun () -> report_of Ulib.rogue_jump_kernel_image);
    ("oobstore", false, fun () -> report_of oob_store_image);
    ("unbalanced", false, fun () -> report_of unbalanced_image);
    ("indirect", false, fun () -> report_of indirect_image);
    ( "rogueloop-term",
      false,
      fun () -> report_of ~require_termination:true Ulib.rogue_loop_image );
  ]

let run_verify name out_dir oracle seed =
  (match oracle with
  | None -> ()
  | Some count ->
      let s = Soundness.run ~json_dir:out_dir ~count ~seed () in
      Fmt.pr "%a@." Soundness.pp_summary s;
      if s.Soundness.s_violations <> 0 then begin
        Printf.eprintf
          "palladium: %d soundness violations (minimised counterexamples in \
           %s/SOUNDNESS_*.json)\n"
          s.Soundness.s_violations out_dir;
        exit 1
      end);
  match name with
  | "all" ->
      let mismatches =
        List.filter
          (fun (name, expect_ok, thunk) ->
            let r = thunk () in
            let got = Verify.ok r in
            Printf.printf "verify %-14s %-8s (expected %s)%s\n" name
              (if got then "ok" else "rejected")
              (if expect_ok then "ok" else "rejected")
              (if got = expect_ok then "" else "  <-- MISMATCH");
            got <> expect_ok)
          verify_catalogue
      in
      if mismatches <> [] then begin
        Printf.eprintf "palladium: %d verifier verdicts disagree\n"
          (List.length mismatches);
        exit 1
      end
  | name -> (
      match
        List.find_opt (fun (n, _, _) -> n = name) verify_catalogue
      with
      | None ->
          Printf.eprintf "palladium: unknown image %S (or use 'all')\n" name;
          exit 2
      | Some (_, expect_ok, thunk) ->
          let r = thunk () in
          Fmt.pr "%a@." Verify.pp_report r;
          let path =
            Obs.Bench_json.write ~dir:out_dir ~prefix:"VERIFY_" ~name
              ~body:
                [
                  ("report", Verify.report_json r);
                  ("expected_ok", Obs.Json.Bool expect_ok);
                ]
              ()
          in
          Printf.printf "[%s]\n" path;
          if Verify.ok r <> expect_ok then exit 1)

let verify_cmd =
  let image =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"IMAGE"
          ~doc:
            "Image or workload to verify (see 'verify all' for the \
             catalogue), or 'all' to check every catalogue entry against its \
             expected verdict.")
  in
  let out_dir =
    Arg.(
      value & opt string "."
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:"Directory for the VERIFY_<image>.json artifact.")
  in
  let oracle =
    Arg.(
      value
      & opt (some int) None
      & info [ "oracle" ] ~docv:"N"
          ~doc:
            "First run the static-vs-dynamic soundness oracle over $(docv) \
             generated specimens (verify, then execute under both engines \
             with every access classification checked concretely); exits \
             non-zero on any contract violation, leaving minimised \
             SOUNDNESS_*.json counterexamples in the output directory.")
  in
  let seed =
    Arg.(
      value
      & opt int 0xA11D
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Generator seed for --oracle (specimens are a pure function \
                of (seed, index)).")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run the load-time extension verifier (CFG decode, instruction \
          lints, taint/interval bounds analysis, routine summaries) over the \
          shipped example images and the unsafe demo programs, printing \
          per-check reports; --oracle cross-examines the analysis against \
          the simulated CPU.")
    Term.(const run_verify $ image $ out_dir $ oracle $ seed)

(* --- audit: protection-state auditor over the scenario catalogue ----------- *)

(* Shared --verify-policy/--audit-policy flags; the environment
   (PALLADIUM_VERIFY/PALLADIUM_AUDIT) seeds the defaults, the flags
   override it. *)
let verify_policy_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "verify-policy" ] ~docv:"POLICY"
        ~doc:"Load-time verifier policy: off, warn or reject.")

let audit_policy_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "audit-policy" ] ~docv:"POLICY"
        ~doc:"Protection-state audit policy: off, warn or reject.")

let apply_policies verify audit =
  let set what parse assign = function
    | None -> ()
    | Some s -> (
        match parse s with
        | Some p -> assign p
        | None ->
            Printf.eprintf
              "palladium: invalid --%s-policy %S (expected off|warn|reject)\n"
              what s;
            exit 2)
  in
  set "verify" Pconfig.verify_policy_of_string Pconfig.set_verify_policy verify;
  set "audit" Pconfig.audit_policy_of_string Pconfig.set_audit_policy audit

let finding_ids (r : Audit.Engine.report) =
  List.sort_uniq String.compare
    (List.map (fun f -> f.Audit.Finding.f_id) r.Audit.Engine.rp_findings)

(* Run one scenario and check its expectation: clean scenarios must
   audit to zero findings; each misconfiguration must yield findings
   citing exactly its intended invariant. *)
let run_one_audit ~out_dir ~verbose name =
  let write ~expected r ok =
    let path =
      Obs.Bench_json.write ~dir:out_dir ~prefix:"AUDIT_" ~name
        ~body:
          [
            ("scenario", Obs.Json.String name);
            ("expected", Obs.Json.String expected);
            ("ok", Obs.Json.Bool ok);
            ("report", Audit.Engine.report_json r);
          ]
        ()
    in
    if verbose then Printf.printf "[%s]\n" path
  in
  let describe r ok expected =
    Printf.printf "audit %-24s %-28s (expected %s)%s\n" name
      (match finding_ids r with
      | [] -> "clean"
      | ids -> String.concat "," ids)
      expected
      (if ok then "" else "  <-- MISMATCH");
    if verbose || not ok then
      List.iter
        (fun f -> Fmt.pr "    %a@." Audit.Finding.pp f)
        r.Audit.Engine.rp_findings
  in
  match List.assoc_opt name Audit_scenarios.clean_scenarios with
  | Some builder ->
      let kernel = builder () in
      let r = Audit.Engine.run (Paudit.capture kernel) in
      let ok = Audit.Engine.ok r in
      describe r ok "clean";
      write ~expected:"clean" r ok;
      ok
  | None -> (
      match Audit_scenarios.find_misconfig name with
      | None ->
          Printf.eprintf
            "palladium: unknown audit scenario %S (or use 'all'); known: %s\n"
            name
            (String.concat ", "
               (List.map fst Audit_scenarios.clean_scenarios
               @ List.map
                   (fun m -> m.Audit_scenarios.mc_name)
                   Audit_scenarios.misconfigs));
          exit 2
      | Some m ->
          let world = Audit_scenarios.build () in
          m.Audit_scenarios.mc_apply world;
          let r = Audit_scenarios.audit_world world in
          let ids = finding_ids r in
          let ok = ids = [ m.Audit_scenarios.mc_id ] in
          describe r ok m.Audit_scenarios.mc_id;
          write ~expected:m.Audit_scenarios.mc_id r ok;
          ok)

let run_audit name out_dir verbose verify_policy audit_policy =
  apply_policies verify_policy audit_policy;
  match name with
  | "all" ->
      let names =
        List.map fst Audit_scenarios.clean_scenarios
        @ List.map (fun m -> m.Audit_scenarios.mc_name) Audit_scenarios.misconfigs
      in
      let bad =
        List.filter
          (fun n -> not (run_one_audit ~out_dir ~verbose n))
          names
      in
      Printf.printf "%d scenario(s), %d mismatch(es)\n" (List.length names)
        (List.length bad);
      if bad <> [] then exit 1
  | name -> if not (run_one_audit ~out_dir ~verbose:true name) then exit 1

let audit_cmd =
  let scenario =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Clean scenario (boot, app, kernelext, full), a misconfiguration \
             from the injected catalogue, or 'all'.")
  in
  let out_dir =
    Arg.(
      value & opt string "."
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:"Directory for the AUDIT_<scenario>.json artifacts.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print every finding.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Run the protection-state auditor (invariant catalogue + \
          privilege-transfer reachability) over clean machine states and the \
          injected-misconfiguration catalogue, checking each against its \
          expected verdict.")
    Term.(
      const run_audit $ scenario $ out_dir $ verbose $ verify_policy_flag
      $ audit_policy_flag)

(* --- vmmap: inspect an application's address space ------------------------- *)

let run_vmmap () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"inspect" in
  ignore (Pbackend.load app Ulib.strrev_image);
  Fmt.pr "%a\n" Address_space.pp (Pbackend.task app).Task.asp

let vmmap_cmd =
  Cmd.v
    (Cmd.info "vmmap"
       ~doc:"Show a promoted application's address space with PPL markings.")
    Term.(const run_vmmap $ const ())

let main =
  Cmd.group
    (Cmd.info "palladium" ~version:Palladium.version
       ~doc:
         "Palladium (SOSP '99) reproduction: segmentation+paging protection \
          for safe software extensions, on a simulated x86.")
    [
      call_cmd; filter_cmd; webserver_cmd; fleet_cmd; rpc_cmd; stats_cmd;
      trace_cmd; profile_cmd; verify_cmd; audit_cmd; vmmap_cmd;
    ]

let () = exit (Cmd.eval main)
