(* Tests for the observability layer: the counter registry, the trace
   ring buffer, the hand-rolled JSON emitter/parser and the
   BENCH_*.json document schema. *)

module C = Obs.Counters
module T = Obs.Trace
module J = Obs.Json

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_str = Alcotest.(check string)

let rec drop_first n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop_first (n - 1) tl

(* naive substring search, enough for asserting on rendered text *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* --- Counters ---------------------------------------------------------- *)

let test_counters_basics () =
  let c = C.counter "test.obs.alpha" in
  let v0 = C.value c in
  C.incr c;
  C.add c 4;
  check_int "incr+add" (v0 + 5) (C.value c);
  check_bool "same handle on re-intern" true (C.counter "test.obs.alpha" == c);
  check_int "get by name" (v0 + 5) (C.get "test.obs.alpha");
  check_int "unregistered reads 0" 0 (C.get "test.obs.never-registered")

let test_counters_kind_safety () =
  let c = C.counter "test.obs.mono" in
  Alcotest.check_raises "negative add on counter"
    (Invalid_argument "Counters.add: negative increment on a monotonic counter")
    (fun () -> C.add c (-1));
  Alcotest.check_raises "set on counter"
    (Invalid_argument "Counters.set: cannot set a monotonic counter") (fun () ->
      C.set c 7);
  let g = C.gauge "test.obs.gauge" in
  C.set g 42;
  check_int "gauge set" 42 (C.value g);
  C.add g (-2);
  check_int "gauge down" 40 (C.value g);
  Alcotest.check_raises "kind mismatch on intern"
    (Invalid_argument
       "Counters: test.obs.gauge already registered with another kind")
    (fun () -> ignore (C.counter "test.obs.gauge"))

let test_counters_snapshot_delta () =
  let c = C.counter "test.obs.delta" in
  let since = C.snapshot () in
  check_bool "snapshot sorted" true
    (let names = List.map fst since in
     names = List.sort compare names);
  C.add c 3;
  let d = C.delta ~since in
  check_int "delta shows the change" 3 (List.assoc "test.obs.delta" d);
  check_bool "unchanged counters absent from delta" true
    (List.for_all (fun (_, v) -> v <> 0) d)

(* --- Trace ring -------------------------------------------------------- *)

let test_trace_disabled_is_noop () =
  T.set_enabled false;
  T.clear ();
  T.emit (T.Custom "dropped on the floor");
  check_int "no events while off" 0 (T.length ())

let test_trace_ring_overwrite () =
  T.set_capacity 4;
  T.set_enabled true;
  for i = 1 to 6 do
    T.emit ~cycles:i (T.Custom (string_of_int i))
  done;
  T.set_enabled false;
  check_int "bounded" 4 (T.length ());
  check_int "two dropped" 2 (T.dropped ());
  (match T.events () with
  | { T.event = T.Custom "3"; _ } :: _ -> ()
  | _ -> Alcotest.fail "oldest surviving event should be 3");
  let seqs = List.map (fun e -> e.T.seq) (T.events ()) in
  check_bool "sequence numbers ascend" true
    (seqs = List.sort compare seqs);
  T.set_capacity 1024;
  check_int "growing keeps the buffered events" 4 (T.length ());
  T.clear ()

let test_trace_set_capacity_preserves () =
  T.set_capacity 8;
  T.set_enabled true;
  for i = 1 to 4 do
    T.emit ~cycles:i (T.Custom (string_of_int i))
  done;
  T.set_enabled false;
  let before = T.events () in
  T.set_capacity 2;
  check_int "shrunk to new capacity" 2 (T.length ());
  let survivors = T.events () in
  check_bool "newest entries survive, oldest first" true
    (List.map (fun e -> e.T.event) survivors
    = [ T.Custom "3"; T.Custom "4" ]);
  check_bool "sequence numbers preserved" true
    (List.map (fun e -> e.T.seq) survivors
    = List.map (fun e -> e.T.seq) (drop_first 2 before));
  check_int "entries that no longer fit count as dropped" 2 (T.dropped ());
  (* the shrunk ring keeps rotating correctly *)
  T.set_enabled true;
  T.emit (T.Custom "5");
  T.set_enabled false;
  check_int "still bounded" 2 (T.length ());
  (match List.map (fun e -> e.T.event) (T.events ()) with
  | [ T.Custom "4"; T.Custom "5" ] -> ()
  | _ -> Alcotest.fail "ring rotation broken after shrink");
  T.set_capacity 1024;
  T.clear ()

(* Obs.Ring against a list model: the model keeps the buffered
   (push number, value) pairs oldest first, plus the push and drop
   counts. *)
type ring_op = Push of int | Resize of int | Clear

let pp_ring_op = function
  | Push v -> Printf.sprintf "Push %d" v
  | Resize n -> Printf.sprintf "Resize %d" n
  | Clear -> "Clear"

let ring_ops_gen =
  let open QCheck.Gen in
  list_size (int_bound 60)
    (frequency
       [
         (8, map (fun v -> Push v) small_nat);
         (2, map (fun n -> Resize n) (int_range 1 8));
         (1, return Clear);
       ])

let prop_ring_model =
  QCheck.Test.make ~count:300 ~name:"ring matches a list model"
    (QCheck.make ring_ops_gen ~print:(fun ops ->
         String.concat "; " (List.map pp_ring_op ops)))
    (fun ops ->
      let r = Obs.Ring.create 4 in
      let cap = ref 4 and buf = ref [] and pushed = ref 0 and dropped = ref 0 in
      let keep_newest n =
        let excess = List.length !buf - n in
        if excess > 0 then begin
          buf := drop_first excess !buf;
          dropped := !dropped + excess
        end
      in
      List.for_all
        (fun op ->
          (match op with
          | Push v ->
              Obs.Ring.push r v;
              buf := !buf @ [ (!pushed, v) ];
              incr pushed;
              keep_newest !cap
          | Resize n ->
              Obs.Ring.resize r n;
              cap := n;
              keep_newest n
          | Clear ->
              Obs.Ring.clear r;
              buf := [];
              pushed := 0;
              dropped := 0);
          let since s =
            List.filter_map (fun (i, v) -> if i >= s then Some v else None) !buf
          in
          Obs.Ring.to_list r = List.map snd !buf
          && Obs.Ring.pushed r = !pushed
          && Obs.Ring.dropped r = !dropped
          && Obs.Ring.length r = List.length !buf
          && Obs.Ring.capacity r = !cap
          && Obs.Ring.last r = Option.map snd (List.nth_opt (List.rev !buf) 0)
          && List.for_all
               (fun s -> Obs.Ring.since r s = since s)
               (List.init (!cap + 4) (fun k -> !pushed + 1 - k)))
        ops)

let test_trace_event_rendering () =
  let s =
    Fmt.str "%a" T.pp_event
      (T.Priv_transition { from_ring = 3; to_ring = 0; via = "int" })
  in
  check_str "priv transition" "priv r3->r0 via int" s;
  let s =
    Fmt.str "%a" T.pp_event
      (T.Protected_call { fn = "0x1000"; outcome = "ok"; cycles = 144 })
  in
  check_str "protected call" "protected call 0x1000 -> ok (144 cycles)" s

(* --- JSON -------------------------------------------------------------- *)

let test_json_escaping () =
  check_str "string escapes" {|"a\"b\\c\nd\te"|}
    (J.to_string (J.String "a\"b\\c\nd\te"));
  check_str "control chars" {|"\u0001"|} (J.to_string (J.String "\001"));
  check_str "non-finite floats are null" "[null,null,null]"
    (J.to_string (J.List [ J.Float nan; J.Float infinity; J.Float neg_infinity ]))

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("i", J.Int 42);
        ("neg", J.Int (-7));
        ("f", J.Float 1.5);
        ("s", J.String "hé\"llo\n");
        ("b", J.Bool true);
        ("n", J.Null);
        ("l", J.List [ J.Int 1; J.Obj [ ("x", J.Int 2) ] ]);
      ]
  in
  (match J.of_string (J.to_string doc) with
  | Ok parsed -> check_bool "compact roundtrip" true (parsed = doc)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match J.of_string (J.pretty doc) with
  | Ok parsed -> check_bool "pretty roundtrip" true (parsed = doc)
  | Error e -> Alcotest.failf "pretty parse failed: %s" e

let test_json_parse_errors () =
  let bad s =
    match J.of_string s with
    | Ok _ -> Alcotest.failf "expected parse error for %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1,}";
  bad "tru";
  bad "1 2";
  bad "\"unterminated"

let prop_json_roundtrip =
  let gen_leaf =
    QCheck.Gen.oneof
      [
        QCheck.Gen.map (fun i -> J.Int i) QCheck.Gen.int;
        QCheck.Gen.map (fun b -> J.Bool b) QCheck.Gen.bool;
        QCheck.Gen.map (fun s -> J.String s) QCheck.Gen.string_printable;
        QCheck.Gen.return J.Null;
      ]
  in
  let gen =
    QCheck.Gen.sized (fun n ->
        QCheck.Gen.fix
          (fun self n ->
            if n <= 0 then gen_leaf
            else
              QCheck.Gen.oneof
                [
                  gen_leaf;
                  QCheck.Gen.map
                    (fun l -> J.List l)
                    (QCheck.Gen.list_size (QCheck.Gen.int_bound 4)
                       (self (n / 2)));
                  QCheck.Gen.map
                    (fun ps ->
                      J.Obj (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) ps))
                    (QCheck.Gen.list_size (QCheck.Gen.int_bound 4)
                       (self (n / 2)));
                ])
          (min n 6))
  in
  QCheck.Test.make ~name:"json print/parse roundtrip" ~count:200
    (QCheck.make gen) (fun doc ->
      match J.of_string (J.to_string doc) with
      | Ok parsed -> parsed = doc
      | Error _ -> false)

(* --- Histogram --------------------------------------------------------- *)

module H = Obs.Histogram

let test_histogram_buckets () =
  check_int "0 lands in bucket 0" 0 (H.bucket_of 0);
  check_int "1 lands in bucket 1" 1 (H.bucket_of 1);
  check_int "2 lands in bucket 2" 2 (H.bucket_of 2);
  check_int "3 lands in bucket 2" 2 (H.bucket_of 3);
  check_int "4 lands in bucket 3" 3 (H.bucket_of 4);
  check_int "1023 lands in bucket 10" 10 (H.bucket_of 1023);
  check_int "1024 lands in bucket 11" 11 (H.bucket_of 1024);
  check_bool "bucket 0 holds only 0" true (H.bucket_bounds 0 = (0, 0));
  check_bool "bucket 3 is [4,7]" true (H.bucket_bounds 3 = (4, 7));
  (* every power-of-two boundary: bucket_bounds inverts bucket_of *)
  for i = 1 to 30 do
    let lo, hi = H.bucket_bounds i in
    check_int "lo maps back" i (H.bucket_of lo);
    check_int "hi maps back" i (H.bucket_of hi)
  done;
  let h = H.create () in
  List.iter (H.observe h) [ 0; 1; 2; 3; 7 ];
  check_bool "non-empty buckets" true
    (H.buckets h = [ (0, 0, 1); (1, 1, 1); (2, 3, 2); (4, 7, 1) ]);
  check_bool "cumulative counts" true
    (H.cumulative h = [ (0, 1); (1, 2); (3, 4); (7, 5) ]);
  Alcotest.check_raises "negative observation"
    (Invalid_argument "Histogram.observe: negative observation") (fun () ->
      H.observe h (-1))

let test_histogram_summary () =
  let h = H.create () in
  check_bool "empty percentile" true (H.percentile h 50.0 = None);
  List.iter (H.observe h) [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ];
  check_int "count" 10 (H.count h);
  check_int "sum" 550 (H.sum h);
  check_bool "min" true (H.min_value h = Some 10);
  check_bool "max" true (H.max_value h = Some 100);
  check_bool "p50 nearest rank" true (H.percentile h 50.0 = Some 50);
  check_bool "p90" true (H.percentile h 90.0 = Some 90);
  check_bool "p99 rounds up to max" true (H.percentile h 99.0 = Some 100)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone (p50<=p90<=p99<=max)"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 100_000))
    (fun xs ->
      let h = H.create () in
      List.iter (H.observe h) xs;
      match
        (H.percentile h 50.0, H.percentile h 90.0, H.percentile h 99.0,
         H.max_value h)
      with
      | Some p50, Some p90, Some p99, Some mx ->
          p50 <= p90 && p90 <= p99 && p99 <= mx
      | _ -> false)

let hist_fingerprint h =
  ( H.count h, H.sum h, H.min_value h, H.max_value h,
    H.percentile h 50.0, H.percentile h 99.0, H.buckets h )

let prop_merge_associative =
  let small_list =
    QCheck.(list_of_size Gen.(int_range 0 20) (int_range 0 10_000))
  in
  QCheck.Test.make ~name:"merge is associative (and counts add up)" ~count:100
    (QCheck.triple small_list small_list small_list)
    (fun (xs, ys, zs) ->
      let of_list l =
        let h = H.create () in
        List.iter (H.observe h) l;
        h
      in
      let a = of_list xs and b = of_list ys and c = of_list zs in
      let left = H.merge (H.merge a b) c in
      let right = H.merge a (H.merge b c) in
      hist_fingerprint left = hist_fingerprint right
      && H.count left = List.length xs + List.length ys + List.length zs)

let test_histogram_registry_and_json () =
  H.reset_all ();
  let h = H.get_or_create "test.hist" in
  check_bool "same handle on re-intern" true (H.get_or_create "test.hist" == h);
  List.iter (H.observe h) [ 1; 2; 3; 4 ];
  check_bool "find" true
    (match H.find "test.hist" with Some h' -> h' == h | None -> false);
  check_bool "listed" true (List.mem_assoc "test.hist" (H.all_named ()));
  let j = H.to_json h in
  (match J.member "count" j with
  | Some (J.Int 4) -> ()
  | _ -> Alcotest.fail "to_json count");
  (match (J.member "p50" j, J.member "p99" j, J.member "max" j) with
  | Some (J.Int p50), Some (J.Int p99), Some (J.Int mx) ->
      check_bool "json percentiles ordered" true (p50 <= p99 && p99 <= mx)
  | _ -> Alcotest.fail "to_json percentiles");
  H.reset_all ();
  check_bool "reset_all empties the registry" true (H.all_named () = [])

(* --- Spans ------------------------------------------------------------- *)

module S = Obs.Span

let test_span_nesting () =
  S.clear ();
  H.reset_all ();
  S.set_enabled true;
  S.begin_ "outer" ~at:0;
  S.begin_ "inner" ~at:10;
  check_int "two open" 2 (S.open_depth ());
  S.end_ "inner" ~at:30;
  S.end_ "outer" ~at:100;
  S.set_enabled false;
  check_int "all closed" 0 (S.open_depth ());
  (match S.spans () with
  | [ outer; inner ] ->
      check_str "outer first (start order)" "outer" outer.S.sp_name;
      check_int "outer depth" 0 outer.S.sp_depth;
      check_int "inner depth" 1 inner.S.sp_depth;
      check_bool "inner parented under outer" true
        (inner.S.sp_parent = Some outer.S.sp_id);
      check_int "inner duration" 20 (inner.S.sp_stop - inner.S.sp_start)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  (* completed spans fed the histogram registry *)
  (match H.find "inner" with
  | Some h -> check_bool "inner duration observed" true (H.sum h = 20)
  | None -> Alcotest.fail "span did not feed its histogram");
  S.clear ();
  H.reset_all ()

let test_span_unbalanced () =
  S.clear ();
  H.reset_all ();
  S.set_enabled true;
  let u0 = S.unbalanced () in
  (* an end with no matching begin is dropped *)
  S.end_ "never-opened" ~at:5;
  check_int "stray end counted" (u0 + 1) (S.unbalanced ());
  check_int "stray end records nothing" 0 (S.length ());
  (* ending an outer span implicitly closes the inner one at the same
     stamp *)
  S.begin_ "a" ~at:0;
  S.begin_ "b" ~at:10;
  S.end_ "a" ~at:50;
  S.set_enabled false;
  check_int "implicit close counted" (u0 + 2) (S.unbalanced ());
  check_int "nothing left open" 0 (S.open_depth ());
  (match S.spans () with
  | [ a; b ] ->
      check_str "a" "a" a.S.sp_name;
      check_str "b" "b" b.S.sp_name;
      check_int "b clipped to a's end" 50 b.S.sp_stop
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  S.clear ();
  H.reset_all ()

let test_span_record_and_disabled () =
  S.clear ();
  H.reset_all ();
  S.set_enabled false;
  S.begin_ "off" ~at:0;
  S.end_ "off" ~at:1;
  check_bool "disabled record returns None" true
    (S.record "off" ~start:0 ~stop:1 = None);
  check_int "disabled is a no-op" 0 (S.length ());
  S.set_enabled true;
  (match S.record "root" ~start:0 ~stop:100 with
  | None -> Alcotest.fail "record returned None while enabled"
  | Some root_id -> (
      ignore (S.record "child" ~parent:root_id ~track:3 ~start:10 ~stop:20);
      match S.spans () with
      | [ _; child ] ->
          check_bool "explicit parent" true (child.S.sp_parent = Some root_id);
          check_int "track carried" 3 child.S.sp_track
      | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)));
  S.set_enabled false;
  S.clear ();
  H.reset_all ()

(* --- Counters.pp grouping ---------------------------------------------- *)

let test_counters_pp_groups () =
  ignore (C.counter "ppt.alpha");
  C.add (C.counter "ppt.beta") 2;
  let s = Fmt.str "%a" C.pp () in
  let has sub = contains s sub in
  check_bool "group header present" true (has "ppt  (2 counters, subtotal 2)");
  check_bool "rows indented under the header" true (has "  ppt.alpha")

(* --- Exporters --------------------------------------------------------- *)

let test_export_chrome_trace () =
  S.clear ();
  H.reset_all ();
  S.set_enabled true;
  S.begin_ "root" ~args:[ ("k", "v") ] ~at:0;
  S.end_ "root" ~at:40;
  S.set_enabled false;
  let j = Obs.Export.chrome_trace (S.spans ()) in
  (match J.member "traceEvents" j with
  | Some (J.List [ ev ]) -> (
      (match J.member "name" ev with
      | Some (J.String "root") -> ()
      | _ -> Alcotest.fail "event name");
      (match J.member "ph" ev with
      | Some (J.String "X") -> ()
      | _ -> Alcotest.fail "complete-event phase");
      (match (J.member "ts" ev, J.member "dur" ev) with
      | Some (J.Float 0.0), Some (J.Float 40.0) -> ()
      | _ -> Alcotest.fail "ts/dur");
      match J.member "args" ev with
      | Some (J.Obj [ ("k", J.String "v") ]) -> ()
      | _ -> Alcotest.fail "args carried")
  | _ -> Alcotest.fail "traceEvents");
  (* the document must be valid JSON end to end *)
  (match J.of_string (J.pretty j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e);
  S.clear ();
  H.reset_all ()

let test_export_prometheus_and_folded () =
  S.clear ();
  H.reset_all ();
  S.set_enabled true;
  S.begin_ "root" ~at:0;
  S.begin_ "leaf" ~at:10;
  S.end_ "leaf" ~at:30;
  S.end_ "root" ~at:100;
  S.set_enabled false;
  let prom = Obs.Export.prometheus () in
  let has sub = contains prom sub in
  check_bool "histogram type line" true
    (has "# TYPE palladium_leaf histogram");
  check_bool "+Inf bucket" true (has {|palladium_leaf_bucket{le="+Inf"} 1|});
  check_bool "sum series" true (has "palladium_leaf_sum 20");
  check_bool "count series" true (has "palladium_leaf_count 1");
  let folded = Obs.Export.folded (S.spans ()) in
  check_bool "self time excludes children" true
    (String.split_on_char '\n' folded |> List.mem "root 80");
  check_bool "stack paths use ;" true
    (String.split_on_char '\n' folded |> List.mem "root;leaf 20");
  S.clear ();
  H.reset_all ()

(* --- BENCH_*.json schema ----------------------------------------------- *)

let mem name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" name

let as_int j =
  match J.to_int j with Some i -> i | None -> Alcotest.fail "not an int"

let as_str j =
  match J.to_str j with Some s -> s | None -> Alcotest.fail "not a string"

let test_bench_json_schema () =
  let c = C.counter "test.obs.bench" in
  let since = C.snapshot () in
  C.incr c;
  let doc =
    Obs.Bench_json.document ~name:"unit" ~since
      ~body:
        [
          ( "value",
            Obs.Bench_json.measurement ~stddev:0.5 ~paper:(J.Int 142)
              (J.Int 144) );
        ]
      ()
  in
  (* the emitted text must parse back to the same tree *)
  (match J.of_string (J.pretty doc) with
  | Ok parsed -> check_bool "document parses" true (parsed = doc)
  | Error e -> Alcotest.failf "document does not parse: %s" e);
  check_str "schema tag" Obs.Bench_json.schema_version
    (as_str (mem "schema" doc));
  check_str "name" "unit" (as_str (mem "name" doc));
  let m = mem "value" doc in
  check_int "measured" 144 (as_int (mem "measured" m));
  check_int "paper" 142 (as_int (mem "paper" m));
  check_bool "counters snapshot present" true
    (List.mem "test.obs.bench" (J.keys (mem "counters" doc)));
  check_int "delta counts just this run" 1
    (as_int (mem "test.obs.bench" (mem "counters_delta" doc)));
  check_str "file name" "BENCH_unit.json" (Obs.Bench_json.file_name "unit")

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "intern/incr/add" `Quick test_counters_basics;
          Alcotest.test_case "kind safety" `Quick test_counters_kind_safety;
          Alcotest.test_case "snapshot + delta" `Quick
            test_counters_snapshot_delta;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled emit is a no-op" `Quick
            test_trace_disabled_is_noop;
          Alcotest.test_case "ring overwrite + dropped" `Quick
            test_trace_ring_overwrite;
          Alcotest.test_case "set_capacity preserves newest" `Quick
            test_trace_set_capacity_preserves;
          Alcotest.test_case "event rendering" `Quick test_trace_event_rendering;
          QCheck_alcotest.to_alcotest prop_ring_model;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "summary statistics" `Quick test_histogram_summary;
          Alcotest.test_case "registry + to_json" `Quick
            test_histogram_registry_and_json;
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
          QCheck_alcotest.to_alcotest prop_merge_associative;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting + histogram feed" `Quick test_span_nesting;
          Alcotest.test_case "unbalanced ends" `Quick test_span_unbalanced;
          Alcotest.test_case "record + disabled no-ops" `Quick
            test_span_record_and_disabled;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace events" `Quick
            test_export_chrome_trace;
          Alcotest.test_case "prometheus + folded stacks" `Quick
            test_export_prometheus_and_folded;
        ] );
      ( "counters-pp",
        [ Alcotest.test_case "prefix grouping" `Quick test_counters_pp_groups ]
      );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "bench-json",
        [ Alcotest.test_case "schema" `Quick test_bench_json_schema ] );
    ]
