(* End-to-end span profiler test: run real protected calls with
   profiling on and check that the span tree reconstructs the Figure 6
   control transfer — the Prepare stub, the privilege-lowering lret,
   the extension body, the lcall through AppCallGate and the final
   return — and that the Chrome-trace exporter carries those phases.
   The protection-key backend's five phases are checked the same way. *)

module J = Obs.Json
module S = Obs.Span
module H = Obs.Histogram

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let phase_names = [ "Prepare"; "lret"; "ext.body"; "lcall"; "ret" ]

let mpk_phase_names = [ "Prepare"; "wrpkru.in"; "ext.body"; "wrpkru.out"; "ret" ]

let profile_calls ?(backend = Pbackend.Segmentation) n =
  S.clear ();
  H.reset_all ();
  S.set_enabled true;
  let w = Palladium.boot () in
  let app = Palladium.create_backend_app ~backend w ~name:"prof" in
  let ext = Pbackend.load app Ulib.null_image in
  let prepare = Pbackend.resolve app ext "null_fn" in
  for _ = 1 to n do
    match Pbackend.call app ~prepare ~arg:1 with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "protected call failed: %a" Pbackend.pp_call_error e
  done;
  S.set_enabled false;
  S.spans ()

let spans_named name spans =
  List.filter (fun s -> String.equal s.S.sp_name name) spans

let test_protected_call_span_tree backend phase_names () =
  let spans = profile_calls ~backend 3 in
  let roots = spans_named "protected_call" spans in
  check_int "one root span per call" 3 (List.length roots);
  List.iter
    (fun root ->
      check_bool "root has no parent" true (root.S.sp_parent = None);
      (* every Table 1 phase appears exactly once under each root *)
      List.iter
        (fun phase ->
          let children =
            List.filter
              (fun s ->
                String.equal s.S.sp_name phase
                && s.S.sp_parent = Some root.S.sp_id)
              spans
          in
          check_int (phase ^ " under the root") 1 (List.length children);
          let c = List.hd children in
          check_bool (phase ^ " inside the root's window") true
            (root.S.sp_start <= c.S.sp_start && c.S.sp_stop <= root.S.sp_stop))
        phase_names)
    roots;
  (* the hardware ring crossings land under the same roots *)
  if backend = Pbackend.Segmentation then begin
    check_bool "lret ring crossings captured" true
      (List.length (spans_named "hw.lret" spans) >= 3);
    check_bool "lcall ring crossings captured" true
      (List.length (spans_named "hw.lcall" spans) >= 3)
  end;
  (* phase durations feed the per-name histograms *)
  List.iter
    (fun phase ->
      match H.find phase with
      | Some h -> check_int (phase ^ " histogram count") 3 (H.count h)
      | None -> Alcotest.failf "no histogram for %s" phase)
    phase_names;
  S.clear ();
  H.reset_all ()

let test_chrome_trace_carries_phases () =
  let spans = profile_calls 1 in
  let doc = Obs.Export.chrome_trace spans in
  let events =
    match J.member "traceEvents" doc with
    | Some (J.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents list"
  in
  let names =
    List.filter_map
      (fun ev ->
        match J.member "name" ev with Some (J.String s) -> Some s | _ -> None)
      events
  in
  List.iter
    (fun phase ->
      check_bool ("trace event for " ^ phase) true (List.mem phase names))
    ("protected_call" :: phase_names);
  (* the export must be valid JSON *)
  (match J.of_string (J.pretty doc) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e);
  (* and the folded stacks expose the phases as children of the root *)
  let folded = Obs.Export.folded spans in
  let lines = String.split_on_char '\n' folded in
  check_bool "folded stack for Prepare" true
    (List.exists
       (fun l ->
         String.length l >= 23 && String.sub l 0 23 = "protected_call;Prepare ")
       lines);
  S.clear ();
  H.reset_all ()

let test_phase_budget_consistency () =
  (* the sum of the non-body phases is the Table 1 total: it must agree
     with what the call itself reports (the root span covers watchdog
     arming and runtime dispatch too, so it is an upper bound) *)
  let spans = profile_calls 2 in
  let root =
    match spans_named "protected_call" spans with
    | _ :: warm :: _ -> warm (* second call: warm TLB, steady state *)
    | _ -> Alcotest.fail "missing root spans"
  in
  let dur name =
    match
      List.find_opt
        (fun s ->
          String.equal s.S.sp_name name && s.S.sp_parent = Some root.S.sp_id)
        spans
    with
    | Some s -> s.S.sp_stop - s.S.sp_start
    | None -> Alcotest.failf "missing %s" name
  in
  let phase_sum = List.fold_left (fun a n -> a + dur n) 0 phase_names in
  let root_dur = root.S.sp_stop - root.S.sp_start in
  check_bool "phases fit inside the root span" true (phase_sum <= root_dur);
  check_bool "phases dominate the root span" true
    (float_of_int phase_sum >= 0.8 *. float_of_int root_dur);
  S.clear ();
  H.reset_all ()

let () =
  Alcotest.run "profile"
    [
      ( "protected-call",
        [
          Alcotest.test_case "span tree has the Figure 6 phases" `Quick
            (test_protected_call_span_tree Pbackend.Segmentation phase_names);
          Alcotest.test_case "chrome trace carries the phases" `Quick
            test_chrome_trace_carries_phases;
          Alcotest.test_case "phase budget consistency" `Quick
            test_phase_budget_consistency;
          Alcotest.test_case "span tree has the mpk phases" `Quick
            (test_protected_call_span_tree Pbackend.Mpk mpk_phase_names);
        ] );
    ]
