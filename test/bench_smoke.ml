(* CI smoke test: drive every bench subcommand with tiny iteration
   counts and validate the BENCH_<name>.json artifact each one writes —
   it must parse, carry the schema tag, and hold a counter snapshot.
   Guards the bench harness (and its JSON emission) against bit-rot
   without paying full benchmark run times under dune runtest. *)

module J = Obs.Json

let out_dir = "bench_json_out"

let fail fmt = Printf.ksprintf failwith fmt

let mem name j =
  match J.member name j with
  | Some v -> v
  | None -> fail "missing field %S" name

let load name =
  let path = Filename.concat out_dir (Obs.Bench_json.file_name name) in
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match J.of_string s with
  | Ok doc -> doc
  | Error e -> fail "%s does not parse: %s" path e

let as_int name field j =
  match J.to_int j with
  | Some i -> i
  | None -> fail "%s: histogram %s is not an int" name field

let validate name =
  let doc = load name in
  (match J.to_str (mem "schema" doc) with
  | Some s when s = Obs.Bench_json.schema_version -> ()
  | Some s -> fail "%s: wrong schema %S" name s
  | None -> fail "%s: schema is not a string" name);
  (match J.to_str (mem "name" doc) with
  | Some n when n = name -> ()
  | _ -> fail "%s: name field mismatch" name);
  (match J.keys (mem "counters" doc) with
  | [] -> fail "%s: empty counter snapshot" name
  | _ -> ());
  ignore (mem "counters_delta" doc);
  (* every artifact carries a latency distribution of its primary
     metric with coherent percentiles *)
  let h = mem "histogram" doc in
  (match J.to_str (mem "metric" h) with
  | Some "" | None -> fail "%s: histogram metric missing" name
  | Some _ -> ());
  let count = as_int name "count" (mem "count" h) in
  if count < 1 then fail "%s: empty histogram" name;
  let p50 = as_int name "p50" (mem "p50" h) in
  let p90 = as_int name "p90" (mem "p90" h) in
  let p99 = as_int name "p99" (mem "p99" h) in
  let mx = as_int name "max" (mem "max" h) in
  if not (p50 <= p90 && p90 <= p99 && p99 <= mx) then
    fail "%s: percentiles not monotone (p50=%d p90=%d p99=%d max=%d)" name p50
      p90 p99 mx;
  ignore (mem "mean" h);
  (match mem "buckets" h with
  | J.List (_ :: _) -> ()
  | _ -> fail "%s: histogram buckets missing" name);
  Printf.printf "bench-smoke %-10s ok\n%!" name

let () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let json_dir = out_dir in
  let total = Bench_runs.table1 ~json_dir () in
  if total <= 0 then fail "table1: non-positive protected call cost";
  validate "table1";
  Bench_runs.table2 ~json_dir ~runs:2 ();
  validate "table2";
  Bench_runs.table3 ~json_dir
    ~protected_call_usec:(float_of_int total /. float_of_int Cycles.mhz)
    ();
  validate "table3";
  Bench_runs.figure7 ~json_dir ();
  validate "figure7";
  Bench_runs.micro ~json_dir ();
  validate "micro";
  Bench_runs.ipc_cmp ~json_dir ~palladium_cycles:total ();
  validate "ipc";
  Bench_runs.ablation ~json_dir ~sizes:[ 32 ] ();
  validate "ablation";
  Bench_runs.sfi ~json_dir ~packets:12 ();
  validate "sfi";
  Bench_runs.backends ~json_dir ~packets:8 ~calls:5 ~requests:60 ();
  validate "backends";
  (* the backend matrix must cover enough of the space, agree across
     backends, and show the protection-key transfer beating the
     segmentation gate pair *)
  let doc = load "backends" in
  (match mem "backends" doc with
  | J.List rows when List.length rows >= 3 ->
      List.iter
        (fun row ->
          (match J.to_str (mem "backend" row) with
          | Some _ -> ()
          | None -> fail "backends: row without a backend name");
          (match mem "fault_contained" row with
          | J.Bool true -> ()
          | _ -> fail "backends: a backend failed to contain the rogue store");
          match J.to_int (mem "invariants_checked" (mem "audit" row)) with
          | Some n when n > 0 -> ()
          | _ -> fail "backends: audit coverage missing")
        rows
  | J.List rows -> fail "backends: only %d backends covered" (List.length rows)
  | _ -> fail "backends: backend rows missing");
  (match mem "workloads" doc with
  | J.List ws when List.length ws >= 3 -> ()
  | _ -> fail "backends: fewer than 3 workloads");
  (match mem "agreement" doc with
  | J.Bool true -> ()
  | _ -> fail "backends: cross-backend agreement bit not set");
  (match mem "mpk_cheaper_than_seg" doc with
  | J.Bool true -> ()
  | _ -> fail "backends: mpk transfer not cheaper than segmentation");
  Bench_runs.audit ~json_dir ~full_iters:3 ();
  validate "audit";
  (* a clean world must audit clean, and skipping must beat auditing *)
  let doc = load "audit" in
  (match J.to_int (mem "findings" doc) with
  | Some 0 -> ()
  | Some n -> fail "audit: clean bench world has %d findings" n
  | None -> fail "audit: findings missing");
  (match J.to_float (mem "speedup" (mem "incremental" doc)) with
  | Some s when s > 1.0 -> ()
  | Some s -> fail "audit: incremental skip not faster than full audit (%.2fx)" s
  | None -> fail "audit: speedup missing");
  (* the headline claim of the verifier benchmark: elision keeps the
     guard count strictly below blanket SFI *)
  let doc = load "sfi" in
  let guards = mem "guards" doc in
  (match (J.to_int (mem "sfi_full" guards), J.to_int (mem "sfi_verified" guards)) with
  | Some full, Some ver when ver < full -> ()
  | Some full, Some ver ->
      fail "sfi: verified guard count %d not below full %d" ver full
  | _ -> fail "sfi: guard counts missing");
  (* the soundness oracle: a small batch must verify, execute under
     both engines and come back violation-free *)
  let snd = Bench_runs.soundness ~json_dir ~specimens:30 () in
  validate "verify";
  if snd.Soundness.s_runs = 0 then fail "soundness: no engine runs";
  let doc = load "verify" in
  let body = mem "soundness" doc in
  (match J.to_int (mem "violations" body) with
  | Some 0 -> ()
  | Some n -> fail "soundness: %d contract violations" n
  | None -> fail "soundness: violations missing");
  (match J.to_int (mem "total" (mem "accesses" body)) with
  | Some n when n > 0 -> ()
  | _ -> fail "soundness: no accesses classified");
  (* the fleet runner: a parallel sweep of 4 worlds must reproduce the
     serial per-world results bit-for-bit, and the merged histogram
     must account for every request.  The speedup is a wall-clock
     ratio, so its measurement runs at most one domain per core (more
     only measures domain switching), holds the lock every suite
     shares (test/dune), and keeps the best of [speedup_sweeps]
     sweeps, each of which must pass the deterministic checks. *)
  let speedup_sweeps = 5 in
  let domains = min 4 (Domain.recommended_domain_count ()) in
  let sweep () =
    let outcome = Bench_runs.parallel ~json_dir ~domains ~worlds:4 () in
    validate "parallel";
    if not outcome.Bench_runs.par_deterministic then
      fail "parallel: per-world results diverged from the serial run";
    if
      outcome.Bench_runs.par_merged_requests
      <> outcome.Bench_runs.par_serial_requests
    then
      fail "parallel: merged request count %d does not match serial total %d"
        outcome.Bench_runs.par_merged_requests
        outcome.Bench_runs.par_serial_requests;
    let doc = load "parallel" in
    (match mem "deterministic" doc with
    | J.Bool true -> ()
    | _ -> fail "parallel: artifact does not record determinism");
    outcome.Bench_runs.par_speedup
  in
  let best_speedup =
    List.fold_left max 0. (List.init speedup_sweeps (fun _ -> sweep ()))
  in
  (* speedup is only meaningful with real cores; single-core runners
     pay pure domain-switch overhead.  A wall-clock floor miss is
     raised only after every deterministic check below has run. *)
  let speedup_failure =
    if domains < 2 then (
      Printf.printf
        "bench-smoke parallel: single core, skipping speedup assertion\n%!";
      None)
    else if best_speedup < 1.3 then (
      let msg =
        Printf.sprintf
          "parallel: %d-domain speedup %.2fx (best of %d) below 1.3x threshold"
          domains best_speedup speedup_sweeps
      in
      Printf.printf "bench-smoke %s (raised after the remaining checks)\n%!"
        msg;
      Some msg)
    else None
  in
  (* the sampled time series: per-world series from a parallel fleet
     must be bit-identical to the serial run, and the merged bcache
     series must show cache warm-up (first busy interval strictly
     below steady state) *)
  let tl =
    Bench_runs.timeline ~json_dir ~domains:2 ~batches:4 ~calls:12 ~requests:64
      ()
  in
  validate "timeline";
  if not tl.Bench_runs.tl_deterministic then
    fail "timeline: sampled series diverged from the serial run";
  if not (Bench_runs.tl_warmed tl) then
    fail "timeline: no bcache warm-up (first %.4f, steady %.4f)"
      tl.Bench_runs.tl_first_ratio tl.Bench_runs.tl_steady_ratio;
  if tl.Bench_runs.tl_samples < tl.Bench_runs.tl_worlds * 4 then
    fail "timeline: only %d sampled points" tl.Bench_runs.tl_samples;
  let doc = load "timeline" in
  (match mem "deterministic" doc with
  | J.Bool true -> ()
  | _ -> fail "timeline: artifact does not record determinism");
  (match mem "warmed" (mem "warmup" doc) with
  | J.Bool true -> ()
  | _ -> fail "timeline: artifact does not record the warm-up");
  (match J.member "series" (mem "series" doc) with
  | Some (J.List (_ :: _)) -> ()
  | _ -> fail "timeline: artifact series missing");
  (* the basic-block engine: every workload must produce bit-identical
     architectural totals under both engines, and the compute-heavy
     protected-call sweep must clear a 3x simulated-MIPS floor *)
  let fp =
    Bench_runs.fastpath ~json_dir ~machine_iters:20_000 ~calls:30 ~sim_calls:10
      ~requests:2_000 ()
  in
  validate "fastpath";
  List.iter
    (fun r ->
      if not (Bench_runs.fp_identical r) then
        fail "fastpath: %s cycle/instruction totals differ between engines"
          r.Bench_runs.fp_workload)
    fp.Bench_runs.fp_rows;
  let doc = load "fastpath" in
  (match mem "rows" doc with
  | J.List (_ :: _) -> ()
  | _ -> fail "fastpath: artifact rows missing");
  let pc = fp.Bench_runs.fp_protected in
  (* speedup is a wall-clock ratio: only assert it when the interpreter
     run is long enough for Sys.time to be meaningful *)
  if pc.Bench_runs.fp_interp.Bench_runs.es_sec < 0.01 then
    Printf.printf
      "bench-smoke fastpath: interp run too short to time, skipping speedup \
       assertion\n\
       %!"
  else begin
    let s = Bench_runs.fp_speedup pc in
    if s < 3.0 then
      fail "fastpath: protected-call block-engine speedup %.2fx below 3x floor"
        s
  end;
  Option.iter failwith speedup_failure;
  print_endline "bench-smoke: all subcommands emitted valid artifacts"
