(* The repository benchmark.

     main.exe --workload <null-call|cgi-request|packet-filter|all>
              --seed <n> --seconds <s> --trace <0|1>

   Untraced (--trace 0): for --seconds, set the workload up in fresh
   worlds and run whole passes over its seeded operation sequence,
   epoch after epoch, timing each operation and checking each output
   outside the timed interval.  Prints the end-to-end metrics.

   Traced (--trace 1): the same epochs with untraced and traced passes
   in alternation, followed by tight loops over lower-layer functions.
   Prints the per-layer metrics and the tracing overhead.

   Either way a short prefix of the operation sequence is replayed in
   fresh worlds under the interpreter and must match the block engine
   bit for bit.  The last line of stdout is one JSON object; the exit
   code is 1 when any check failed. *)

open Workloads

(* The process defaults too, for anything booted without explicit
   arguments.  [Workloads.boot] sets the engine before every boot. *)
let pin_process_defaults () =
  Pconfig.set_verify_policy verify;
  Pconfig.set_audit_policy audit;
  Pconfig.set_budget_policy budget;
  Pbackend.set_default Pbackend.Segmentation;
  Obs.Span.set_enabled false

let replay_ops = 16

let counted =
  [
    "x86.phys.reads"; "x86.phys.writes"; "x86.tlb.hits"; "x86.tlb.misses";
    "x86.mmu.page_walks"; "x86.tlb.flushes"; "x86.seg.descriptor_loads";
    "machine.instructions"; "machine.gate_transits"; "machine.sreg_loads";
    "machine.faults"; "bcache.chain"; "bcache.translate"; "bcache.invalidate";
    "kern.syscalls"; "kern.sigsegv"; "kern.ext_faults"; "core.protected_calls";
  ]

let count d name = Option.value (List.assoc_opt name d) ~default:0

(* Counter deltas summed over [exec] calls alone: a check may run the
   simulator too (a hostile request's check reads the hidden cell), and
   its events are not the operation's. *)
let tally_add t ~since =
  List.iter
    (fun (k, v) -> Hashtbl.replace t k (v + Option.value (Hashtbl.find_opt t k) ~default:0))
    (Obs.Counters.delta ~since)

let tally_list t =
  List.sort compare (List.filter (fun (_, v) -> v <> 0) (List.of_seq (Hashtbl.to_seq t)))

(* --- Running passes ------------------------------------------------------ *)

type run = {
  lat : Probe.Buf.t; (* host ns of every timed operation *)
  mutable ops : int;
  mutable failed : int;
  mutable passes : int;
  instrs : Probe.Buf.t; (* simulated instructions of every timed operation *)
  mutable first_cycles : int; (* simulated cycles of the first pass *)
  mutable prefix : (string * int * int) list; (* digest, cycles, instrs *)
  prefix_counts : (string, int) Hashtbl.t; (* counts of the prefix's [exec]s *)
}

let new_run () =
  {
    lat = Probe.Buf.create 65536;
    ops = 0;
    failed = 0;
    passes = 0;
    instrs = Probe.Buf.create 65536;
    first_cycles = 0;
    prefix = [];
    prefix_counts = Hashtbl.create 64;
  }

let sum_over inst f =
  List.fold_left (fun a w -> a + f (Palladium.cpu w)) 0 inst.worlds

(* One pass over the sequence.  Only [exec] is inside the timed
   interval; reading the simulated clocks and counters and checking
   happen outside it.  The counter deltas of the first pass's prefix
   go to [r.prefix_counts], and those of every operation to [tally]
   when given. *)
let pass ?tally inst (tr : Probe.tracer) r =
  let first = r.passes = 0 in
  for i = 0 to inst.n - 1 do
    let tallies =
      (if first && i < replay_ops then [ r.prefix_counts ] else []) @ Option.to_list tally
    in
    let since = if tallies = [] then [] else Obs.Counters.snapshot () in
    let c0 = sum_over inst Cpu.cycles and n0 = sum_over inst Cpu.instructions in
    tr.op <- r.ops;
    let t0 = Probe.now_ns () in
    inst.exec tr i;
    let t1 = Probe.now_ns () in
    List.iter (fun t -> tally_add t ~since) tallies;
    if tr.on then Probe.record tr Probe.sp_op t0 t1;
    Probe.Buf.push r.lat (t1 - t0);
    let dc = sum_over inst Cpu.cycles - c0 and dn = sum_over inst Cpu.instructions - n0 in
    Probe.Buf.push r.instrs dn;
    r.ops <- r.ops + 1;
    let ok, digest = inst.check i in
    if not ok then begin
      r.failed <- r.failed + 1;
      if r.failed <= 5 then Printf.eprintf "perfbench: op %d failed its check: %s\n%!" i digest
    end;
    if first then begin
      r.first_cycles <- r.first_cycles + dc;
      if i < replay_ops then r.prefix <- (digest, dc, dn) :: r.prefix
    end
  done;
  if first then r.prefix <- List.rev r.prefix;
  r.passes <- r.passes + 1

(* --- Interp replay ---------------------------------------------------------- *)

(* Replay the first [replay_ops] operations in fresh worlds under the
   interpreter, in a private metrics sink, and compare outputs,
   per-operation simulated cycles and instructions, and every
   architectural counter (the bcache.* engine meta-counters differ by
   design) with the block-engine run. *)
let replay_matches wl r =
  let arch d = List.filter (fun (k, _) -> not (String.starts_with ~prefix:"bcache." k)) d in
  Obs.Sink.with_sink (Obs.Sink.create ()) @@ fun () ->
  let quiet = Probe.tracer false in
  let inst = wl ~engine:Cpu.Interp quiet in
  let counts = Hashtbl.create 64 in
  let prefix =
    List.init replay_ops (fun i ->
        let since = Obs.Counters.snapshot () in
        let c0 = sum_over inst Cpu.cycles and n0 = sum_over inst Cpu.instructions in
        inst.exec quiet i;
        tally_add counts ~since;
        let dc = sum_over inst Cpu.cycles - c0 and dn = sum_over inst Cpu.instructions - n0 in
        let _, digest = inst.check i in
        (digest, dc, dn))
  in
  List.iter Palladium.teardown inst.worlds;
  let same =
    prefix = r.prefix && arch (tally_list counts) = arch (tally_list r.prefix_counts)
  in
  if not same then prerr_endline "perfbench: Interp replay differs from the Blocks run";
  same

(* --- Host facts -------------------------------------------------------------- *)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float kb /. 1024.0)
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let ambient =
  [
    "PALLADIUM_ENGINE"; "PALLADIUM_BACKEND"; "PALLADIUM_VERIFY"; "PALLADIUM_AUDIT";
    "PALLADIUM_BUDGET"; "PALLADIUM_BUDGET_CYCLES";
  ]

let print_settings ~name ~seed ~seconds ~trace =
  Printf.printf "perfbench %s: seed %d, %gs per run, trace %d\n" name seed seconds trace;
  Printf.printf
    "  pinned: engine blocks, verify %s, audit %s, budget %s (%d cycles), worlds %s\n"
    (Verify.policy_name verify) (Audit.Engine.policy_name audit) (Vcost.policy_name budget)
    budget_cycles
    (if name = "packet-filter" then "kernel (SPL 1 extension segment)" else "seg + mpk");
  List.iter
    (fun v ->
      match Sys.getenv_opt v with
      | Some x -> Printf.printf "  ambient %s=%s ignored\n" v x
      | None -> ())
    ambient;
  Printf.printf "  build profile %s, OCaml %s, nproc %d, host %s\n" Build_info.profile
    Sys.ocaml_version
    (Domain.recommended_domain_count ())
    (Unix.gethostname ())

(* --- Output ------------------------------------------------------------------ *)

type metric = { m_name : string; value : float; unit : string; note : string }

let m ?(note = "") m_name unit value = { m_name; value; unit; note }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* [shown] metrics are printed in the table only; [metrics] are also
   the JSON line's. *)
let emit ?(shown = []) ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-28s %14.6g %-10s %s\n" x.m_name x.value x.unit x.note)
    (metrics @ shown);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name (json_number x.value)
              x.unit)
          metrics))

let per_s n ns = if ns = 0 then 0.0 else float n /. (float ns /. 1e9)

(* --- The two modes --------------------------------------------------------- *)

(* The timed run is a series of epochs.  Each epoch first sets the
   workload up again and again in fresh worlds, each a setup_s sample,
   until [setup_budget_ns] of host time has gone to set-ups (at least
   [best_of] of them; the last set-up is kept), and then runs
   [epoch_passes] whole passes through [each_pass].  The program's heap
   grows with every operation (ROADMAP item 1), so fresh worlds keep the
   process bounded for any --seconds, and spreading the set-ups over the
   run samples set-up time under the same host conditions as the
   operations.  The first epoch always runs to completion;
   [at_checkpoint] sees its worlds after its last pass, at a fixed
   operation count.  The set-up time is the median of the [best_of]
   fastest set-ups, the rule the host figures use (see [host_figures]):
   a set-up takes 0.3-12 ms, so a run has hundreds of them, and the
   fastest fall in the host's quiet moments.  A yardstick is timed after
   every set-up the same way. *)
let best_of = 3

let setup_budget_ns = 100_000_000

type epochs = {
  last : Workloads.t; (* the last epoch's instance, still live *)
  setup_s : float;
  setups : int;
  yardstick_us : float;
}

let fastest_median xs =
  Probe.median_float (List.filteri (fun i _ -> i < best_of) (List.sort compare xs))

(* A fixed loop of plain OCaml that runs none of the program: it only
   moves when the host does, so it tells a slow host from a slow
   change. *)
let yardstick () =
  let b = Bytes.init 4096 (fun k -> Char.chr (k land 0xff)) in
  let t0 = Probe.now_ns () in
  let cells = ref [] in
  for round = 1 to 32 do
    for k = 0 to 2047 do
      let c = Bytes.get b k in
      Bytes.set b k (Bytes.get b (4095 - k));
      Bytes.set b (4095 - k) c
    done;
    cells := List.init 256 (fun k -> (k, round)) :: !cells
  done;
  ignore (Sys.opaque_identity (b, !cells));
  float (Probe.now_ns () - t0) /. 1e3

let run_epochs wl tr ~seconds ~each_pass ~at_checkpoint =
  let times = ref [] and yard = ref [] in
  let set_up () =
    Gc.full_major ();
    let t0 = Probe.now_ns () in
    let inst = wl ~engine:Cpu.Blocks tr in
    times := (float (Probe.now_ns () - t0) /. 1e9) :: !times;
    yard := yardstick () :: !yard;
    inst
  in
  let deadline = Probe.now_ns () + int_of_float (seconds *. 1e9) in
  let rec epoch k =
    let until = Probe.now_ns () + setup_budget_ns in
    let rec set_ups j =
      let inst = set_up () in
      if j < best_of || Probe.now_ns () < until then begin
        List.iter Palladium.teardown inst.worlds;
        set_ups (j + 1)
      end
      else inst
    in
    let inst = set_ups 1 in
    let p = ref 0 in
    while !p < inst.epoch_passes && (k = 0 || Probe.now_ns () < deadline) do
      each_pass inst;
      incr p
    done;
    if k = 0 then at_checkpoint inst;
    if Probe.now_ns () < deadline then begin
      List.iter Palladium.teardown inst.worlds;
      epoch (k + 1)
    end
    else inst
  in
  let last = epoch 0 in
  {
    last;
    setup_s = fastest_median !times;
    setups = List.length !times;
    yardstick_us = fastest_median !yard;
  }

(* Host figures come from the fastest executions of each chunk of the
   sequence: [chunk] consecutive operations do the same work in every
   pass, and on a shared host other tenants only ever slow them down, so
   the [k] fastest executions of each chunk among the [candidates]
   passes are the steadiest estimate of the program's own speed.
   Chunks last ~10-20 ms, short enough to fit the host's fast windows.
   The figures over all passes are printed beside them. *)

type host = {
  runs : int; (* executions of each chunk the figures come from *)
  samples : int; (* operations in them *)
  h_ops_per_s : float;
  p50_us : float;
  p99_us : float;
  beyond : int; (* samples above p99 *)
  h_sim_mips : float;
}

let host_figures r ~n ~chunk ~k candidates =
  let chunk_sum buf start = Probe.Buf.sum ~from:start ~len:chunk buf in
  let fastest c =
    let run p =
      let s = (p * n) + (c * chunk) in
      (chunk_sum r.lat s, s)
    in
    let runs = List.map run candidates in
    List.filteri (fun i _ -> i < k) (List.sort compare runs) |> List.map snd
  in
  let chosen = List.concat_map fastest (List.init (n / chunk) Fun.id) in
  let slice s = Array.init chunk (fun j -> Probe.Buf.get r.lat (s + j)) in
  let lat = Array.concat (List.map slice chosen) in
  Array.sort Int.compare lat;
  let total buf = List.fold_left (fun a s -> a + chunk_sum buf s) 0 chosen in
  let ns = total r.lat in
  let p99 = Probe.percentile lat 0.99 in
  {
    runs = min k (List.length candidates);
    samples = Array.length lat;
    h_ops_per_s = per_s (Array.length lat) ns;
    p50_us = float (Probe.percentile lat 0.5) /. 1e3;
    p99_us = float p99 /. 1e3;
    beyond = Array.fold_left (fun a x -> if x > p99 then a + 1 else a) 0 lat;
    h_sim_mips = per_s (total r.instrs) ns /. 1e6;
  }

(* The tail takes enough executions for 1000 operations, so that
   op_p99_us has ten samples beyond it. *)
let tail_k n = max best_of ((1000 + n - 1) / n)

let retained inst =
  ( sum_over inst (fun c -> List.length (Cpu.marks c)),
    List.fold_left
      (fun a w -> a + List.length (Kernel.segv_log (Palladium.kernel w)))
      0 inst.worlds,
    List.fold_left (fun a (_, h) -> a + Obs.Histogram.count h) 0 (Obs.Histogram.all_named ()) )

let yardstick_metric e =
  m "host.yardstick_us" "us" e.yardstick_us
    ~note:(Printf.sprintf "host, plain OCaml, median of the %d fastest of %d" best_of e.setups)

let end_to_end wl ~seconds =
  let off = Probe.tracer false in
  let r = new_run () in
  let live0 = ref 0 and mem = ref (0.0, 0) in
  let each_pass inst =
    if r.passes = 0 then live0 := live_words ();
    pass inst off r
  in
  let at_checkpoint _ =
    let rss = peak_rss_mb () in
    mem := (rss, live_words ())
  in
  let e = run_epochs wl off ~seconds ~each_pass ~at_checkpoint in
  let inst = e.last in
  let rss, live1 = !mem in
  let mem_ops = inst.epoch_passes * inst.n in
  let same = replay_matches wl r in
  let n = inst.n in
  let all = List.init r.passes Fun.id in
  let h = host_figures r ~n ~chunk:inst.chunk ~k:best_of all in
  let t = host_figures r ~n ~chunk:inst.chunk ~k:(tail_k n) all in
  List.iter (Printf.printf "  %s\n") (inst.notes ());
  Printf.printf "  %d ops in %d passes of %d\n" r.ops r.passes n;
  Printf.printf "  all passes: %.1f ops/s, %.3f simulated Minstr/s\n"
    (per_s r.ops (Probe.Buf.sum r.lat))
    (per_s (Probe.Buf.sum r.instrs) (Probe.Buf.sum r.lat) /. 1e6);
  Printf.printf "  Interp replay of the first %d ops: %s\n" replay_ops
    (if same then "identical" else "DIFFERS");
  let host (x : host) =
    Printf.sprintf "host, %d fastest of %d runs of each chunk, n=%d" x.runs r.passes x.samples
  in
  let metrics =
    [
      m "ops_per_s" "ops/s" h.h_ops_per_s ~note:(host h);
      m "sim_mips" "Minstr/s" h.h_sim_mips ~note:"simulated instr per host s, same chunk runs";
      m "sim_cycles_per_op" "cycles" (float r.first_cycles /. float n)
        ~note:(Printf.sprintf "simulated, first pass of %d ops" n);
      m "live_bytes_per_op" "bytes"
        (float ((live1 - !live0) * (Sys.word_size / 8)) /. float mem_ops)
        ~note:(Printf.sprintf "major heap after full GC, over the first %d ops" mem_ops);
      m "peak_rss_mb" "MB" rss ~note:(Printf.sprintf "VmHWM after %d ops" mem_ops);
      m "setup_s" "s" e.setup_s
        ~note:(Printf.sprintf "host, median of the %d fastest of %d set-ups" best_of e.setups);
    ]
  in
  (* printed, but not gated by BENCHMARK.json: see README.md *)
  let shown =
    [
      m "op_p50_us" "us" h.p50_us ~note:(host h);
      m "op_p99_us" "us" t.p99_us
        ~note:(Printf.sprintf "%s, %d beyond" (host t) t.beyond);
      m "failed_frac" "ratio"
        (float r.failed /. float r.ops)
        ~note:(Printf.sprintf "%d of %d" r.failed r.ops);
      yardstick_metric e;
    ]
  in
  let correct = r.failed = 0 && same in
  emit ~shown ~correct ~attempted:r.ops ~failed:r.failed metrics;
  correct

(* Host ns per call of lower-layer public functions, each loop over a
   world booted outside the timed closure. *)
let unit_costs () =
  let w = boot ~engine:Cpu.Blocks Pbackend.Segmentation in
  let k = Palladium.kernel w and cpu = Palladium.cpu w in
  let phys = Kernel.phys k in
  let frame = X86.Phys_mem.alloc_frame phys lsl X86.Phys_mem.page_shift in
  let cost f =
    Probe.unit_ns (fun n ->
        for i = 1 to n do
          ignore (Sys.opaque_identity (f i))
        done)
  in
  let mmu = Cpu.mmu cpu in
  let lin = Kernel.kalloc k ~bytes:4096 in
  let r0 = X86.Privilege.R0 in
  ignore (X86.Mmu.translate mmu ~cpl:r0 ~access:X86.Fault.Read lin);
  let view = Cpu.view cpu and kds = Kernel.kernel_data_selector k in
  let probe = Obs.Counters.counter "perfbench.probe" in
  (* ns per simulated instruction of a warm register-only kernel
     (131k instructions per call, so the crossing is ~1%) *)
  let per_instr engine =
    let w = boot ~engine Pbackend.Segmentation in
    let app = Palladium.create_backend_app w ~name:"perfbench-mix" in
    let ext = Pbackend.load app (Ulib.mix_image ~rounds:16384) in
    let prepare = Pbackend.resolve app ext "mix" in
    let call () = ignore (call_or_fail "mix" (Pbackend.call app ~prepare ~arg:1)) in
    call ();
    let n0 = Cpu.instructions (Palladium.cpu w) in
    call ();
    let per_call = Cpu.instructions (Palladium.cpu w) - n0 in
    let ns = Probe.unit_ns (fun n -> for _ = 1 to n do call () done) in
    Palladium.teardown w;
    ns /. float per_call
  in
  let costs =
    [
      ("x86.phys.read_u8_ns", cost (fun i -> X86.Phys_mem.read_u8 phys (frame + (i land 0xfff))));
      ("x86.phys.read_u32_ns", cost (fun i -> X86.Phys_mem.read_u32 phys (frame + (i land 0xffc))));
      ( "x86.phys.write_u32_ns",
        cost (fun i -> X86.Phys_mem.write_u32 phys (frame + (i land 0xffc)) i) );
      ( "x86.mmu.translate_hit_ns",
        cost (fun _ -> X86.Mmu.translate mmu ~cpl:r0 ~access:X86.Fault.Read lin) );
      ("x86.mmu.read_u32_ns", cost (fun i -> X86.Mmu.read_u32 mmu ~cpl:r0 (lin + (i land 0xffc))));
      ("x86.seg.load_data_ns", cost (fun _ -> X86.Segmentation.load_data view ~cpl:r0 kds));
      ("obs.counters.incr_ns", cost (fun _ -> Obs.Counters.incr probe));
      ("machine.block_instr_ns", per_instr Cpu.Blocks);
      ("machine.interp_instr_ns", per_instr Cpu.Interp);
    ]
  in
  Palladium.teardown w;
  costs

let traced ~name ~seed wl ~seconds =
  let tr = Probe.tracer true and off = Probe.tracer false in
  let r = new_run () in
  (* Untraced and traced passes alternate, so drift over the run (heap
     growth, host load) falls on both alike.  The first traced pass
     gives the exact per-operation counts, over [exec] alone. *)
  let untraced_ops = ref 0 and untraced_ns = ref 0 in
  let traced_ops = ref 0 and traced_ns = ref 0 in
  let minor = ref 0.0 and promoted = ref 0.0 and majors = ref 0 in
  let d = Hashtbl.create 64 and tallied = ref false in
  let one_pass inst tracer ops ns =
    let ops0 = r.ops and lat0 = Probe.Buf.length r.lat in
    pass inst tracer r;
    ops := !ops + r.ops - ops0;
    ns := !ns + Probe.Buf.sum ~from:lat0 r.lat
  in
  let each_pass inst =
    if r.passes mod 2 = 0 then one_pass inst off untraced_ops untraced_ns
    else if not !tallied then begin
      (* the first traced pass only counts: its counter snapshots would
         show in the GC figures and the profile *)
      tallied := true;
      pass ~tally:d inst tr r
    end
    else begin
      let gc0 = Gc.quick_stat () in
      Sampler.start ();
      one_pass inst tr traced_ops traced_ns;
      Sampler.stop ();
      let gc1 = Gc.quick_stat () in
      minor := !minor +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
      promoted := !promoted +. gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      majors := !majors + gc1.Gc.major_collections - gc0.Gc.major_collections
    end
  in
  let kept = ref (0, 0, 0) in
  let e = run_epochs wl tr ~seconds ~each_pass ~at_checkpoint:(fun inst -> kept := retained inst) in
  let inst = e.last in
  let marks, segv, hist_samples = !kept in
  let d = tally_list d in
  let untraced = per_s !untraced_ops !untraced_ns in
  let untraced_passes = List.filter (fun p -> p mod 2 = 0) (List.init r.passes Fun.id) in
  let h = host_figures r ~n:inst.n ~chunk:inst.chunk ~k:(tail_k inst.n) untraced_passes in
  let traced_ops = !traced_ops and traced_ns = !traced_ns in
  let op_ns = float traced_ns /. float (max 1 traced_ops) in
  let same = replay_matches wl r in
  (* the loaders' verifier run and the full audit, timed standalone *)
  List.iter
    (fun (im : Image.t) ->
      for _ = 1 to 5 do
        Probe.span tr Probe.sp_verify (fun () ->
            ignore
              (Verify.verify ~entries:im.Image.exports ~externs:(fun _ -> true)
                 ~region:(0, X86.Layout.user_limit + 1)
                 ~allowed_far:(fun _ -> true) ~name:im.Image.name im.Image.text))
      done)
    inst.images;
  List.iter
    (fun w ->
      for _ = 1 to 5 do
        Probe.span tr Probe.sp_audit (fun () ->
            ignore (Paudit.force_audit ~context:"perfbench" (Palladium.kernel w)))
      done)
    inst.worlds;
  let cycles_per_op = float r.first_cycles /. float inst.n in
  let rps = ref 0.0 in
  for _ = 1 to 5 do
    Probe.span tr Probe.sp_server_run (fun () ->
        let res =
          Server.run ~total:1000 ~invocation:Cgi_model.Libcgi_protected ~bytes:1024
            ~protected_call_usec:(cycles_per_op /. float Cycles.mhz)
            ()
        in
        rps := res.Server.throughput_rps)
  done;
  let costs = unit_costs () in
  let cost name = List.assoc name costs in
  let per_op name = float (count d name) /. float inst.n in
  let ratio a b = if a + b = 0 then 0.0 else float a /. float (a + b) in
  let shares, samples = Sampler.shares () in
  let est x = x /. op_ns in
  let increments = List.fold_left (fun a (_, v) -> a + v) 0 d in
  let span_metrics =
    List.concat
      (List.mapi
         (fun kind sname ->
           if kind = Probe.sp_op then []
           else
             let b = tr.Probe.durs.(kind) in
             let sorted = Probe.Buf.sorted b in
             let note = Printf.sprintf "host, n=%d" (Array.length sorted) in
             [
               m sname "us" (float (Probe.percentile sorted 0.5) /. 1e3) ~note:("p50, " ^ note);
               m (sname ^ "_total") "us" (float (Probe.Buf.sum b) /. 1e3) ~note:("total, " ^ note);
             ])
         (Array.to_list Probe.span_names))
  in
  let untraced_note =
    Printf.sprintf "host, %d fastest untraced runs of each chunk, n=%d" h.runs h.samples
  in
  let metrics =
    [
      m "op_p50_us" "us" h.p50_us ~note:untraced_note;
      m "op_p99_us" "us" h.p99_us ~note:(Printf.sprintf "%s, %d beyond" untraced_note h.beyond);
    ]
    @ List.map (fun c -> m c "count/op" (per_op c) ~note:"simulated, exact") counted
    @ [
        m "x86.tlb.hit_ratio" "ratio" (ratio (count d "x86.tlb.hits") (count d "x86.tlb.misses"));
        m "bcache.hit_ratio" "ratio" (ratio (count d "bcache.hit") (count d "bcache.miss"));
        m "machine.marks_len" "entries" (float marks) ~note:"retained after the first epoch";
        m "kern.segv_log_len" "entries" (float segv) ~note:"retained after the first epoch";
        m "obs.histogram_samples" "samples" (float hist_samples)
          ~note:"retained after the first epoch";
      ]
    @ List.map (fun (c, v) -> m c "ns" v ~note:"host, median of 5 batches") costs
    @ span_metrics
    @ [
        m "websrv.sim_rps" "req/s" !rps ~note:"simulated LibCGI req/s at this workload's cycles/op";
        m "gc.minor_words_per_op" "words/op" (!minor /. float traced_ops);
        m "gc.promoted_words_per_op" "words/op" (!promoted /. float traced_ops);
        m "gc.major_collections" "count" (float !majors) ~note:"during traced passes";
      ]
    @ List.map
        (fun (b, s) ->
          m ("host_share." ^ b) "share" s ~note:(Printf.sprintf "SIGPROF, %d samples" samples))
        shares
    @ [
        m "attr.x86_share" "share"
          (est
             ((per_op "x86.phys.reads" *. cost "x86.phys.read_u8_ns")
             +. (per_op "x86.phys.writes" *. cost "x86.phys.write_u32_ns" /. 4.0)
             +. (per_op "x86.tlb.hits" +. per_op "x86.tlb.misses")
                *. cost "x86.mmu.translate_hit_ns"
             +. (per_op "x86.seg.descriptor_loads" *. cost "x86.seg.load_data_ns")))
          ~note:"count/op x unit cost, vs host_share.x86";
        m "attr.machine_share" "share"
          (est (per_op "machine.instructions" *. cost "machine.block_instr_ns"))
          ~note:"vs host_share.machine";
        m "attr.obs_share" "share"
          (est (float increments /. float inst.n *. cost "obs.counters.incr_ns"))
          ~note:"vs host_share.obs";
        m "trace.ops_ratio" "ratio" (per_s traced_ops traced_ns /. untraced)
          ~note:(Printf.sprintf "traced vs untraced ops_per_s (%.1f)" untraced);
        yardstick_metric e;
      ]
  in
  List.iter (Printf.printf "  %s\n") (inst.notes ());
  (try
     if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
     let path = Printf.sprintf ".bench_out/%s-seed%d.trace.json" name seed in
     Probe.write_trace tr path;
     Printf.printf "  spans of the traced ops among the first %d written to %s\n" Probe.log_ops
       path
   with Sys_error e -> Printf.printf "  trace file not written: %s\n" e);
  let correct = r.failed = 0 && same in
  emit ~correct ~attempted:r.ops ~failed:r.failed metrics;
  correct

(* --- Command line ------------------------------------------------------------ *)

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 30.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " null-call | cgi-request | packet-filter | all");
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " measured seconds per run (default 30)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  if !workload = "all" then begin
    (* each workload in its own process, so peak RSS and heap figures
       are the workload's own *)
    let failed =
      List.filter
        (fun (name, _) ->
          let argv =
            [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int !seed;
               "--seconds"; string_of_float !seconds; "--trace"; string_of_int !trace |]
          in
          let pid =
            Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr
          in
          match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> false | _ -> true)
        Workloads.all
    in
    exit (if failed = [] then 0 else 1)
  end;
  match List.assoc_opt !workload Workloads.all with
  | None ->
      Printf.eprintf "unknown workload %s\n" !workload;
      exit 2
  | Some make ->
      pin_process_defaults ();
      print_settings ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace;
      let wl = make ~seed:!seed in
      let ok =
        if !trace = 0 then end_to_end wl ~seconds:!seconds
        else traced ~name:!workload ~seed:!seed wl ~seconds:!seconds
      in
      exit (if ok then 0 else 1)
