(* Tests for the domain-parallel fleet runner and the per-sink metric
   ownership it relies on: sink isolation, Sink.merge, serial-vs-
   parallel determinism of per-world results, atomic ID allocation
   across domains, and per-kernel auditor state teardown. *)

module S = Obs.Sink
module C = Obs.Counters
module H = Obs.Histogram

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* --- Sink isolation and merge ----------------------------------------- *)

let test_sink_isolation () =
  let c = C.counter "test.fleet.iso" in
  let before = C.value c in
  let inner = S.create ~label:"iso" () in
  S.with_sink inner (fun () ->
      C.add c 7;
      check_int "inner sees its own increments" 7 (C.value c));
  check_int "outer sink unchanged" before (C.value c);
  check_int "inner retains value after exit" 7 (S.counter_value inner "test.fleet.iso")

let test_sink_merge_counters () =
  let c = C.counter "test.fleet.merge" in
  let a = S.create ~label:"a" () and b = S.create ~label:"b" () in
  S.with_sink a (fun () -> C.add c 3);
  S.with_sink b (fun () -> C.add c 5);
  let m = S.create ~label:"m" () in
  S.merge ~into:m a;
  S.merge ~into:m b;
  check_int "merged counter sums" 8 (S.counter_value m "test.fleet.merge");
  check_int "source unchanged" 3 (S.counter_value a "test.fleet.merge");
  Alcotest.check_raises "self-merge rejected"
    (Invalid_argument "Sink.merge: cannot merge a sink into itself") (fun () ->
      S.merge ~into:m m)

let test_sink_merge_histograms () =
  let a = S.create () and b = S.create () in
  S.with_sink a (fun () ->
      let h = H.get_or_create "test.fleet.hist" in
      H.observe h 10;
      H.observe h 20);
  S.with_sink b (fun () ->
      let h = H.get_or_create "test.fleet.hist" in
      H.observe h 30);
  let m = S.create () in
  S.merge ~into:m a;
  S.merge ~into:m b;
  match S.find_histogram m "test.fleet.hist" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h ->
      check_int "count" 3 (H.count h);
      check_int "sum" 60 (H.sum h);
      Alcotest.(check (option int)) "min" (Some 10) (H.min_value h);
      Alcotest.(check (option int)) "max" (Some 30) (H.max_value h)

let test_sink_merge_spans_and_traces () =
  let a = S.create () in
  S.with_sink a (fun () ->
      Obs.Span.set_enabled true;
      Obs.Trace.set_enabled true;
      Obs.Span.begin_ "work" ~at:5;
      Obs.Span.end_ "work" ~at:9;
      Obs.Trace.emit ~cycles:3 (Obs.Trace.Custom "hello"));
  let m = S.create () in
  S.merge ~into:m a;
  check_int "span carried" 1 (List.length (S.spans m));
  check_int "trace event carried" 1 (List.length (S.trace_events m))

(* --- Fleet: sharding, values, errors ----------------------------------- *)

let test_fleet_values_in_order () =
  let fl = Fleet.run ~domains:2 ~worlds:5 (fun i -> i * i) in
  Alcotest.(check (list int)) "values ascend by world" [ 0; 1; 4; 9; 16 ]
    (Fleet.values fl);
  check_int "domains recorded" 2 fl.Fleet.f_domains;
  check_int "worlds recorded" 5 fl.Fleet.f_worlds

let test_fleet_zero_worlds () =
  let fl = Fleet.run ~domains:3 ~worlds:0 (fun _ -> Alcotest.fail "no world") in
  check_int "no results" 0 (List.length (Fleet.results fl))

let test_fleet_error_propagates () =
  Alcotest.check_raises "world failure re-raised" (Failure "world 2 broke")
    (fun () ->
      ignore
        (Fleet.run ~domains:2 ~worlds:4 (fun i ->
             if i = 2 then failwith "world 2 broke")))

let test_fleet_invalid_args () =
  Alcotest.check_raises "negative worlds"
    (Invalid_argument "Fleet.run: negative world count") (fun () ->
      ignore (Fleet.run ~worlds:(-1) (fun i -> i)));
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Fleet.run: domains must be >= 1") (fun () ->
      ignore (Fleet.run ~domains:0 ~worlds:2 (fun i -> i)))

(* --- Determinism: serial vs parallel ----------------------------------- *)

(* A seeded synthetic workload: a little LCG drives counter bumps and
   histogram observations, so each world's sink contents depend only on
   (seed, world index) — never on scheduling. *)
let synthetic_world ~seed ~steps i =
  let state = ref ((seed * 31) + (i * 7) + 1) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  let c = C.counter (Printf.sprintf "test.fleet.synth.%d" (i mod 3)) in
  let h = H.get_or_create "test.fleet.synth_hist" in
  for _ = 1 to steps do
    C.add c (next () mod 5);
    H.observe h (next () mod 1000)
  done;
  C.value c

let test_fleet_synthetic_determinism () =
  let f = synthetic_world ~seed:42 ~steps:200 in
  let serial = Fleet.run ~domains:1 ~worlds:6 f in
  let par = Fleet.run ~domains:4 ~worlds:6 f in
  Alcotest.(check (list int)) "world values identical" (Fleet.values serial)
    (Fleet.values par);
  Alcotest.(check (list (pair int string))) "no divergences" []
    (Fleet.divergences serial par)

(* Each world runs the shared fleet world: boots a real Palladium world,
   loads an extension into a protected segment, drives protected calls
   and a web-server slice.  TLB/MMU/kernel counters must land in the
   world's own sink and match the serial run exactly. *)
let palladium_world =
  Workload.fleet_world ~until:(fun b -> b >= 1) ~calls:3 ~requests:8

let test_fleet_palladium_determinism () =
  let serial = Fleet.run ~domains:1 ~worlds:4 palladium_world in
  let par = Fleet.run ~domains:3 ~worlds:4 palladium_world in
  Alcotest.(check (list int)) "calls per world" [ 3; 4; 5; 3 ]
    (List.map (fun v -> v.Workload.fw_calls) (Fleet.values par));
  Alcotest.(check (list (pair int string))) "no divergences" []
    (Fleet.divergences serial par);
  (* and the worlds really did produce protection traffic *)
  let merged = Fleet.merged par in
  let some_nonzero prefix =
    List.exists
      (fun (n, v) ->
        String.length n >= String.length prefix
        && String.sub n 0 (String.length prefix) = prefix
        && v > 0)
      (S.counters merged)
  in
  check_bool "merged sink saw TLB traffic" true (some_nonzero "x86.tlb");
  check_bool "merged sink saw ring crossings" true
    (some_nonzero "machine.crossings")

(* A fixed batch count under collectors: per-world values and sampled
   series are bit-identical serial vs 2 domains, and every world's
   calls and requests follow the index variation. *)
let test_fleet_world_batches () =
  let worlds = 4 and batches = 3 in
  let run domains =
    let collectors =
      Array.init worlds (fun _ -> Obs.Collector.create ~every:2_000_000 ())
    in
    let fl =
      Fleet.run ~domains ~worlds
        (Workload.fleet_world ~collectors ~until:(fun b -> b >= batches)
           ~calls:2 ~requests:16)
    in
    let cs = Array.to_list collectors in
    check_bool "every world sampled" true
      (List.for_all (fun c -> Obs.Collector.samples c > 0) cs);
    (fl, List.map (fun c -> Obs.Timeseries.to_json (Obs.Collector.series c)) cs)
  in
  let serial, s_series = run 1 and par, p_series = run 2 in
  check_bool "per-world values identical" true
    (Fleet.values serial = Fleet.values par);
  Alcotest.(check (list (pair int string))) "no divergences" []
    (Fleet.divergences serial par);
  check_bool "sampled series identical" true (s_series = p_series);
  List.iteri
    (fun i v ->
      check_int "batches" batches v.Workload.fw_batches;
      check_int "calls" (batches * (2 + (i mod 3))) v.Workload.fw_calls;
      check_int "requests" (batches * (16 + (32 * (i mod 4))))
        v.Workload.fw_requests)
    (Fleet.values par);
  (* warm calls only: every recorded call costs the same on seg *)
  match S.find_histogram (Fleet.merged par) "fleet.call_cycles" with
  | None -> Alcotest.fail "fleet.call_cycles missing"
  | Some h ->
      check_int "one observation per call"
        (batches * (2 + 3 + 4 + 2))
        (H.count h);
      check_bool "warm calls are uniform" true (H.min_value h = H.max_value h)

(* A wall-clock stop still runs at least one batch and terminates. *)
let test_fleet_world_deadline () =
  let deadline = Unix.gettimeofday () +. 0.05 in
  let v =
    Workload.fleet_world
      ~until:(fun _ -> Unix.gettimeofday () >= deadline)
      ~calls:1 ~requests:4 0
  in
  check_bool "at least one batch" true (v.Workload.fw_batches >= 1);
  check_int "calls follow batches" v.Workload.fw_batches v.Workload.fw_calls;
  check_bool "deadline passed" true (Unix.gettimeofday () >= deadline)

let prop_fleet_determinism =
  QCheck.Test.make ~count:12 ~name:"serial vs parallel fleets agree"
    QCheck.(triple (int_bound 1000) (int_range 1 5) (int_range 1 4))
    (fun (seed, worlds, domains) ->
      let f = synthetic_world ~seed ~steps:50 in
      let serial = Fleet.run ~domains:1 ~worlds f in
      let par = Fleet.run ~domains ~worlds f in
      Fleet.values serial = Fleet.values par
      && Fleet.divergences serial par = [])

(* The synthetic workload again, but each world also drives an
   {!Obs.Collector} on a seeded simulated clock — the sampled time
   series (ring contents, timestamps, deltas, interval histograms)
   must come out bit-identical whether the fleet ran serially or
   sharded over domains. *)
let sampled_world ~collectors ~seed ~steps i =
  let state = ref ((seed * 31) + (i * 7) + 1) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  let c = C.counter (Printf.sprintf "test.fleet.ts.%d" (i mod 2)) in
  let h = H.get_or_create "test.fleet.ts_hist" in
  let co = collectors.(i) in
  let now = ref 0 in
  for _ = 1 to steps do
    C.add c (next () mod 5);
    H.observe h (next () mod 1000);
    now := !now + 40 + (next () mod 100);
    Obs.Collector.tick co ~now:!now
  done;
  Obs.Collector.flush co ~now:!now;
  C.value c

let prop_sampled_series_determinism =
  QCheck.Test.make ~count:10
    ~name:"sampled series bit-identical, serial vs parallel"
    QCheck.(pair (int_bound 1000) (int_range 1 4))
    (fun (seed, worlds) ->
      let fresh () =
        Array.init worlds (fun _ -> Obs.Collector.create ~every:100 ())
      in
      let cs_serial = fresh () and cs_par = fresh () in
      let serial =
        Fleet.run ~domains:1 ~worlds
          (sampled_world ~collectors:cs_serial ~seed ~steps:40)
      in
      let par =
        Fleet.run ~domains:2 ~worlds
          (sampled_world ~collectors:cs_par ~seed ~steps:40)
      in
      let series cs =
        Array.to_list cs
        |> List.map (fun co ->
               Obs.Timeseries.to_json (Obs.Collector.series co))
      in
      Fleet.values serial = Fleet.values par
      && series cs_serial = series cs_par)

let test_fleet_sampled_4worlds () =
  (* the ISSUE's canonical shape: 4 worlds over 2 domains, merged
     series identical to the serial merge *)
  let fresh () = Array.init 4 (fun _ -> Obs.Collector.create ~every:100 ()) in
  let cs_serial = fresh () and cs_par = fresh () in
  ignore
    (Fleet.run ~domains:1 ~worlds:4
       (sampled_world ~collectors:cs_serial ~seed:7 ~steps:60));
  ignore
    (Fleet.run ~domains:2 ~worlds:4
       (sampled_world ~collectors:cs_par ~seed:7 ~steps:60));
  let merged cs = Obs.Collector.merged_series (Array.to_list cs) in
  Alcotest.(check bool)
    "merged sampled series identical" true
    (Obs.Timeseries.to_json (merged cs_serial)
    = Obs.Timeseries.to_json (merged cs_par))

(* --- Atomic ID allocators across domains ------------------------------- *)

let test_atomic_ids_across_domains () =
  let per_domain = 50 in
  let ids =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.init per_domain (fun _ -> X86.Paging.id (X86.Paging.create ()))))
    |> List.concat_map Domain.join
  in
  let distinct = List.sort_uniq compare ids in
  check_int "paging ids never collide" (4 * per_domain)
    (List.length distinct)

(* --- Auditor state dies with the world --------------------------------- *)

let test_paudit_teardown () =
  let w = Palladium.boot () in
  let k = Palladium.kernel w in
  check_bool "auditor state registered at boot" true (Paudit.registered k);
  ignore (Palladium.create_kernel_segment w);
  check_bool "segments tracked after load" true (Paudit.segments k <> []);
  Palladium.teardown w;
  check_bool "state dropped by teardown" false (Paudit.registered k);
  check_bool "segment registry empty" true (Paudit.segments k = []);
  (* a fresh world is unaffected by the old one's teardown *)
  let w2 = Palladium.boot () in
  check_bool "new world registers independently" true
    (Paudit.registered (Palladium.kernel w2));
  Palladium.teardown w2

let () =
  Alcotest.run "fleet"
    [
      ( "sink",
        [
          Alcotest.test_case "isolation" `Quick test_sink_isolation;
          Alcotest.test_case "merge counters" `Quick test_sink_merge_counters;
          Alcotest.test_case "merge histograms" `Quick
            test_sink_merge_histograms;
          Alcotest.test_case "merge spans and traces" `Quick
            test_sink_merge_spans_and_traces;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "values in world order" `Quick
            test_fleet_values_in_order;
          Alcotest.test_case "zero worlds" `Quick test_fleet_zero_worlds;
          Alcotest.test_case "error propagates" `Quick
            test_fleet_error_propagates;
          Alcotest.test_case "invalid arguments" `Quick test_fleet_invalid_args;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "synthetic workload" `Quick
            test_fleet_synthetic_determinism;
          Alcotest.test_case "palladium worlds" `Quick
            test_fleet_palladium_determinism;
          QCheck_alcotest.to_alcotest prop_fleet_determinism;
          QCheck_alcotest.to_alcotest prop_sampled_series_determinism;
          Alcotest.test_case "sampled series, 4 worlds over 2 domains" `Quick
            test_fleet_sampled_4worlds;
          Alcotest.test_case "fleet world, fixed batches" `Quick
            test_fleet_world_batches;
          Alcotest.test_case "fleet world, deadline stop" `Quick
            test_fleet_world_deadline;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "atomic paging ids" `Quick
            test_atomic_ids_across_domains;
        ] );
      ( "teardown",
        [ Alcotest.test_case "paudit forgets" `Quick test_paudit_teardown ] );
    ]
