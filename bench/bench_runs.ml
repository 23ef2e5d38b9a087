(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 5) on the simulated machine, plus the
   section 5.1 micro-measurements, the IPC comparison and an SFI
   ablation.

   Each subcommand prints its ASCII table and also writes a
   machine-readable BENCH_<name>.json artifact (schema
   "palladium.bench.v1": measured and paper values plus a snapshot and
   delta of the global event counters) so two runs can be diffed
   mechanically; see EXPERIMENTS.md.

   This is a library so the bench-smoke test can drive every
   subcommand with tiny iteration counts under dune runtest; the
   [main] executable is a thin argv dispatcher over it. *)

let mhz = float_of_int Cycles.mhz

let usec_of_cycles c = float_of_int c /. mhz

(* Emit the JSON artifact next to the tables and say where it went.
   [histogram] is the latency distribution of the subcommand's primary
   metric; it becomes the artifact's "histogram" block. *)
let emit ~json_dir ~name ~since ?histogram body =
  let path =
    Obs.Bench_json.write ~dir:json_dir ~name ~since ?histogram ~body ()
  in
  Printf.printf "[%s]\n" path

(* --- Common worlds --------------------------------------------------- *)

let boot_app () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"bench" in
  (w, app)

let find_mark marks suffix =
  match
    List.find_opt (fun (n, _) -> Filename.check_suffix n suffix) marks
  with
  | Some (_, c) -> c
  | None -> failwith ("mark not found: " ^ suffix)

type t1 = {
  t1_setup : int;
  t1_calling : int;
  t1_body : int;
  t1_returning : int;
  t1_restoring : int;
}

let t1_total r = r.t1_setup + r.t1_calling + r.t1_returning + r.t1_restoring

(* Measured inter-domain rows (Table 1 column "Inter"). *)
let measure_inter () =
  let _w, app = boot_app () in
  let null_call = Workload.warm_null_call app in
  let setup, call, body, return, restore, done_ =
    Workload.call_bounds (Workload.marks_of_call app null_call)
  in
  {
    t1_setup = call - setup;
    t1_calling = body - call;
    t1_body = return - body;
    t1_returning = restore - return;
    t1_restoring = done_ - restore;
  }

(* Measured intra-domain call (same protection domain). *)
let measure_intra () =
  let _w, app = boot_app () in
  let ext = Pbackend.load app Ulib.null_image in
  (* plain local call to the loaded function: no stubs involved *)
  let fn = Pbackend.dlsym_data ext "null_fn" in
  let probe () =
    Workload.marks_of_call app (fun () ->
        Pbackend.call_unprotected app ~fn ~arg:1)
  in
  ignore (probe ());
  let marks = probe () in
  let start = find_mark marks "rt.start" in
  let body = find_mark marks ".body" in
  let done_ = find_mark marks "rt.done" in
  (body - start, done_ - body)

(* Distribution of the Table 1 total (setup + calling + returning +
   restoring, body excluded) over [n] warm calls in one world. *)
let sample_t1_totals ~n =
  let h = Obs.Histogram.create () in
  let _w, app = boot_app () in
  let call = Workload.warm_null_call app in
  for _ = 1 to n do
    Obs.Histogram.observe h
      (Workload.call_overhead (Workload.marks_of_call app call))
  done;
  h

let table1 ?(json_dir = ".") () =
  let since = Obs.Counters.snapshot () in
  let inter = measure_inter () in
  let intra_before, intra_after = measure_intra () in
  let h_total = sample_t1_totals ~n:16 in
  let p = Cycles.pentium in
  (* Theoretical ("Hardware") column: manual base costs without the
     calibrated hazard penalties. *)
  let hw_setup = 9 (* nine single-cycle move/push operations *) in
  let hw_calling = Cycles.theoretical_lret_pl_change p + p.Cycles.call_near in
  let hw_returning = Cycles.theoretical_lcall_pl_change p in
  let hw_restoring = 2 + p.Cycles.ret_near in
  Table.print ~title:"Table 1: protected call cost (CPU cycles)"
    ~aligns:[ Table.L ]
    ~headers:[ "Component"; "Inter"; "Intra"; "Hardware"; "Paper(Inter)" ]
    [
      [
        "Setting up stack";
        Table.cell_int inter.t1_setup;
        Table.cell_int (intra_before / 2);
        Table.cell_int hw_setup;
        "26";
      ];
      [
        "Calling function";
        Table.cell_int inter.t1_calling;
        Table.cell_int (intra_before - (intra_before / 2));
        Table.cell_int hw_calling;
        "34";
      ];
      [
        "Returning to caller";
        Table.cell_int inter.t1_returning;
        Table.cell_int (intra_after / 2);
        Table.cell_int hw_returning;
        "75";
      ];
      [
        "Restoring state";
        Table.cell_int inter.t1_restoring;
        Table.cell_int (intra_after - (intra_after / 2));
        Table.cell_int hw_restoring;
        "7";
      ];
      [
        "Total Cost";
        Table.cell_int (t1_total inter);
        Table.cell_int (intra_before + intra_after);
        Table.cell_int (hw_setup + hw_calling + hw_returning + hw_restoring);
        "142";
      ];
    ];
  Printf.printf
    "(null-function body, excluded from the rows as in the paper: %d cycles)\n"
    inter.t1_body;
  let open Obs.Json in
  let component label measured ~intra ~hw ~paper =
    Obj
      [
        ("component", String label);
        ("inter_cycles", Int measured);
        ("intra_cycles", Int intra);
        ("hardware_cycles", Int hw);
        ("paper_inter_cycles", Int paper);
      ]
  in
  emit ~json_dir ~name:"table1" ~since
    ~histogram:("protected_call_total_cycles", h_total)
    [
      ( "components",
        List
          [
            component "setup" inter.t1_setup ~intra:(intra_before / 2)
              ~hw:hw_setup ~paper:26;
            component "calling" inter.t1_calling
              ~intra:(intra_before - (intra_before / 2))
              ~hw:hw_calling ~paper:34;
            component "returning" inter.t1_returning ~intra:(intra_after / 2)
              ~hw:hw_returning ~paper:75;
            component "restoring" inter.t1_restoring
              ~intra:(intra_after - (intra_after / 2))
              ~hw:hw_restoring ~paper:7;
          ] );
      ( "total",
        Obj
          [
            ("inter_cycles", Int (t1_total inter));
            ("intra_cycles", Int (intra_before + intra_after));
            ( "hardware_cycles",
              Int (hw_setup + hw_calling + hw_returning + hw_restoring) );
            ("paper_inter_cycles", Int 142);
          ] );
      ("body_cycles", Int inter.t1_body);
    ];
  t1_total inter

(* --- Table 2: string reverse ---------------------------------------- *)

let fill_string app addr n =
  let s = Bytes.init (n - 1) (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  Pbackend.poke_bytes app addr (Bytes.cat s (Bytes.of_string "\000"))

let table2 ?(json_dir = ".") ?(runs = 100) () =
  let since = Obs.Counters.snapshot () in
  let _w, app = boot_app () in
  (* protected: extension segment; unprotected: ordinary shared lib *)
  let ext = Pbackend.load app Ulib.strrev_image in
  let protected_prepare = Pbackend.resolve app ext "strrev" in
  let unprot_image =
    Image.create ~name:"strrevlocal" ~exports:[ "strrev_l" ]
      (Ulib.strrev_body ~name:"strrev_l")
  in
  let unprot =
    Dyld.dlopen ~kernel:(Pbackend.kernel app) ~task:(Pbackend.task app)
      ~env:(Pbackend.env app) unprot_image
  in
  let unprot_fn = Dyld.dlsym unprot "strrev_l" in
  let shared_buf = Pbackend.xmalloc ext 512 in
  let h_prot = Obs.Histogram.create () in
  let measure ?h f =
    let xs =
      List.init runs (fun _ ->
          match f () with
          | Ok (_, cycles) ->
              (match h with
              | Some h -> Obs.Histogram.observe h cycles
              | None -> ());
              usec_of_cycles cycles
          | Error e ->
              Fmt.failwith "table2 call failed: %a" Pbackend.pp_call_error e)
    in
    (Stats.mean xs, Stats.stddev xs)
  in
  let rows =
    List.map
      (fun n ->
        fill_string app shared_buf n;
        let unprot_mean, unprot_sd =
          measure (fun () ->
              Pbackend.call_unprotected app ~fn:unprot_fn ~arg:shared_buf)
        in
        fill_string app shared_buf n;
        let prot_mean, prot_sd =
          measure ~h:h_prot (fun () ->
              Pbackend.call app ~prepare:protected_prepare ~arg:shared_buf)
        in
        let rpc = Rpc.round_trip_usec ~bytes:n in
        (n, (unprot_mean, unprot_sd), (prot_mean, prot_sd), rpc))
      [ 32; 64; 128; 256 ]
  in
  Table.print
    ~title:
      (Printf.sprintf "Table 2: string reverse (microseconds, mean of %d runs)"
         runs)
    ~headers:
      [ "Size (B)"; "Unprotected"; "Palladium"; "Linux RPC"; "Paper(unp/pall/rpc)" ]
    (List.map
       (fun (n, (u, _), (p, _), r) ->
         let paper =
           match n with
           | 32 -> "2.20 / 2.79 / 349.19"
           | 64 -> "4.06 / 4.65 / 352.55"
           | 128 -> "7.78 / 8.37 / 374.20"
           | 256 -> "15.22 / 15.97 / 423.33"
           | _ -> "-"
         in
         [
           Table.cell_int n;
           Table.cell_usec u;
           Table.cell_usec p;
           Table.cell_usec r;
           paper;
         ])
       rows);
  let paper_usec = function
    | 32 -> Some (2.20, 2.79, 349.19)
    | 64 -> Some (4.06, 4.65, 352.55)
    | 128 -> Some (7.78, 8.37, 374.20)
    | 256 -> Some (15.22, 15.97, 423.33)
    | _ -> None
  in
  let open Obs.Json in
  emit ~json_dir ~name:"table2" ~since
    ~histogram:("palladium_strrev_cycles", h_prot)
    [
      ("runs", Int runs);
      ( "rows",
        List
          (List.map
             (fun (n, (u, usd), (p, psd), r) ->
               let pu, pp, pr =
                 match paper_usec n with
                 | Some (a, b, c) -> (Some (Float a), Some (Float b), Some (Float c))
                 | None -> (None, None, None)
               in
               Obj
                 [
                   ("size_bytes", Int n);
                   ( "unprotected_usec",
                     Obs.Bench_json.measurement ~stddev:usd ?paper:pu (Float u)
                   );
                   ( "palladium_usec",
                     Obs.Bench_json.measurement ~stddev:psd ?paper:pp (Float p)
                   );
                   ("rpc_usec", Obs.Bench_json.measurement ?paper:pr (Float r));
                 ])
             rows) );
    ]

(* --- Table 3: CGI throughput ---------------------------------------- *)

let invocation_slug = function
  | Cgi_model.Cgi -> "cgi"
  | Cgi_model.Fast_cgi -> "fastcgi"
  | Cgi_model.Libcgi_protected -> "libcgi_protected"
  | Cgi_model.Libcgi -> "libcgi"
  | Cgi_model.Static -> "webserver"

let table3 ?(json_dir = ".") ~protected_call_usec () =
  let since = Obs.Counters.snapshot () in
  let h_lat = Obs.Histogram.create () in
  let rows = Bench_ab.sweep ~latency:h_lat ~protected_call_usec () in
  let paper = function
    | "28 Bytes" -> [ "98"; "193"; "437"; "448"; "460" ]
    | "1 KBytes" -> [ "92"; "188"; "423"; "431"; "436" ]
    | "10 KBytes" -> [ "76"; "130"; "311"; "312"; "315" ]
    | "100 KBytes" -> [ "33"; "52"; "57"; "57"; "57" ]
    | _ -> []
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Table 3: CGI throughput, requests/sec (protected call = %.2f usec)"
         protected_call_usec)
    ~aligns:[ Table.L ]
    ~headers:
      [ "Size"; "CGI"; "FastCGI"; "LibCGI(prot)"; "LibCGI(unprot)"; "WebServer"; "Paper" ]
    (List.map
       (fun (row : Bench_ab.row) ->
         let v inv = Printf.sprintf "%.0f" (Bench_ab.throughput row inv) in
         [
           row.Bench_ab.size_label;
           v Cgi_model.Cgi;
           v Cgi_model.Fast_cgi;
           v Cgi_model.Libcgi_protected;
           v Cgi_model.Libcgi;
           v Cgi_model.Static;
           String.concat "/" (paper row.Bench_ab.size_label);
         ])
       rows);
  let open Obs.Json in
  emit ~json_dir ~name:"table3" ~since
    ~histogram:("libcgi_protected_request_usec", h_lat)
    [
      ("protected_call_usec", Float protected_call_usec);
      ( "rows",
        List
          (List.map
             (fun (row : Bench_ab.row) ->
               let paper_row = paper row.Bench_ab.size_label in
               let invs =
                 List.mapi
                   (fun i inv ->
                     let paper =
                       Option.map
                         (fun v -> Float v)
                         (Option.bind (List.nth_opt paper_row i)
                            float_of_string_opt)
                     in
                     ( invocation_slug inv ^ "_rps",
                       Obs.Bench_json.measurement ?paper
                         (Float (Bench_ab.throughput row inv)) ))
                   [
                     Cgi_model.Cgi;
                     Cgi_model.Fast_cgi;
                     Cgi_model.Libcgi_protected;
                     Cgi_model.Libcgi;
                     Cgi_model.Static;
                   ]
               in
               Obj
                 (("size_label", String row.Bench_ab.size_label)
                 :: ("size_bytes", Int row.Bench_ab.size_bytes)
                 :: invs))
             rows) );
    ]

(* --- Figure 7: packet filter ----------------------------------------- *)

let figure7 ?(json_dir = ".") () =
  let since = Obs.Counters.snapshot () in
  let w = Palladium.boot () in
  let kernel = Palladium.kernel w in
  let task = Kernel.create_task kernel ~name:"init" in
  let interp = Bpf_asm_interp.load kernel in
  let pkt = Packet.to_bytes (Pkt_gen.matching_packet ()) in
  let h_interp = Obs.Histogram.create () in
  let rows =
    List.map
      (fun n ->
        let terms = Filter_expr.canonical n in
        let prog = Filter_expr.to_bpf_tcpdump terms in
        (* correctness cross-check against the reference VM *)
        assert (Bpf_vm.accepts prog ~packet:pkt);
        Bpf_asm_interp.set_program interp prog;
        Bpf_asm_interp.set_packet interp pkt;
        ignore (Bpf_asm_interp.run interp task);
        for _ = 1 to 7 do
          let _, c = Bpf_asm_interp.run interp task in
          Obs.Histogram.observe h_interp c
        done;
        let bpf_val, bpf_cycles = Bpf_asm_interp.run interp task in
        Obs.Histogram.observe h_interp bpf_cycles;
        assert (bpf_val <> 0);
        let seg = Palladium.create_kernel_segment w in
        let nf = Native_compile.load seg terms in
        ignore (Native_compile.run nf task ~packet:pkt);
        match Native_compile.run nf task ~packet:pkt with
        | Ok (nv, nc) ->
            assert (nv = 1);
            (n, bpf_cycles, nc)
        | Error e -> Fmt.failwith "figure7: %a" Kernel_ext.pp_invoke_error e)
      [ 0; 1; 2; 3; 4 ]
  in
  Table.print
    ~title:
      "Figure 7: packet filter, CPU cycles per packet (conjunction, all terms true)"
    ~headers:[ "Terms"; "BPF (interp)"; "Palladium (compiled)"; "BPF/Palladium" ]
    (List.map
       (fun (n, b, p) ->
         [
           Table.cell_int n;
           Table.cell_int b;
           Table.cell_int p;
           Table.cell_ratio (float_of_int b) (float_of_int p);
         ])
       rows);
  print_endline
    "(paper: BPF grows steeply per term; compiled filter nearly flat;\n\
    \ compiled more than twice as fast at 4 terms)";
  let open Obs.Json in
  emit ~json_dir ~name:"figure7" ~since
    ~histogram:("bpf_interp_cycles_per_packet", h_interp)
    [
      ( "rows",
        List
          (List.map
             (fun (n, b, p) ->
               Obj
                 [
                   ("terms", Int n);
                   ("bpf_cycles", Int b);
                   ("palladium_cycles", Int p);
                   ( "ratio",
                     if p = 0 then Null
                     else Float (float_of_int b /. float_of_int p) );
                 ])
             rows) );
    ]

(* --- Section 5.1 micro-measurements ---------------------------------- *)

let micro ?(json_dir = ".") () =
  let since = Obs.Counters.snapshot () in
  (* dlopen vs seg_dlopen *)
  let _w, app = boot_app () in
  let cpu = Kernel.cpu (Pbackend.kernel app) in
  let before = Cpu.cycles cpu in
  let _h =
    Dyld.dlopen ~kernel:(Pbackend.kernel app) ~task:(Pbackend.task app)
      ~env:(Pbackend.env app) Ulib.libc_image
  in
  let dlopen_cycles = Cpu.cycles cpu - before in
  let before = Cpu.cycles cpu in
  let _x = Pbackend.load app Ulib.null_image in
  let seg_dlopen_cycles = Cpu.cycles cpu - before in
  (* PPL marking of a 10-page region *)
  let area =
    Address_space.mmap (Pbackend.task app).Task.asp ~len:(10 * 4096)
      ~perms:Vm_area.rw Vm_area.Data
  in
  Address_space.populate (Pbackend.task app).Task.asp area;
  let before = Cpu.cycles cpu in
  Pbackend.expose_range app ~addr:area.Vm_area.va_start ~len:(10 * 4096);
  let mark10 = Cpu.cycles cpu - before in
  (* SIGSEGV delivery: offending store by an extension *)
  let rogue = Pbackend.load app Ulib.rogue_write_image in
  let poke = Pbackend.resolve app rogue "poke" in
  let before = Cpu.cycles cpu in
  (match Pbackend.call app ~prepare:poke ~arg:area.Vm_area.va_start with
  | Error (Pbackend.Protection_fault _) -> failwith "expected success (exposed)"
  | _ -> ());
  let ok_call = Cpu.cycles cpu - before in
  Pbackend.hide_range app ~addr:area.Vm_area.va_start ~len:(10 * 4096);
  let h_segv = Obs.Histogram.create () in
  let segv_call = ref 0 in
  for _ = 1 to 8 do
    let before = Cpu.cycles cpu in
    (match Pbackend.call app ~prepare:poke ~arg:area.Vm_area.va_start with
    | Error (Pbackend.Protection_fault _) -> ()
    | _ -> failwith "expected SIGSEGV");
    segv_call := Cpu.cycles cpu - before;
    Obs.Histogram.observe h_segv !segv_call
  done;
  let segv_call = !segv_call in
  (* kernel GP fault processing *)
  let w2 = Palladium.boot () in
  let task2 = Kernel.create_task (Palladium.kernel w2) ~name:"t" in
  let seg = Palladium.create_kernel_segment w2 in
  ignore (Kernel_ext.insmod seg Ulib.rogue_read_image);
  let cpu2 = Kernel.cpu (Palladium.kernel w2) in
  let before = Cpu.cycles cpu2 in
  (match
     Kernel_ext.invoke ~task:task2 seg ~name:"rogueread$peek"
       ~arg:(Kernel_ext.seg_size seg + 4096)
   with
  | Error (Kernel_ext.Aborted_fault _) -> ()
  | _ -> failwith "expected GP fault");
  let gp_call = Cpu.cycles cpu2 - before in
  let p = Cycles.pentium in
  Table.print ~title:"Section 5.1 micro-measurements" ~aligns:[ Table.L ]
    ~headers:[ "Quantity"; "Measured"; "Paper" ]
    [
      [ "dlopen (usec)"; Table.cell_usec (usec_of_cycles dlopen_cycles); "400" ];
      [
        "seg_dlopen (usec)";
        Table.cell_usec (usec_of_cycles seg_dlopen_cycles);
        "420";
      ];
      [ "PPL marking, 10 pages (cycles)"; Table.cell_int mark10; "3450-5450" ];
      [
        "SIGSEGV delivery (cycles, over a clean call)";
        Table.cell_int (segv_call - ok_call);
        "3325";
      ];
      [
        "kernel GP processing (cycles, whole aborted call)";
        Table.cell_int gp_call;
        "1020 + call";
      ];
      [
        "segment register load (cycles)";
        Table.cell_int (Cycles.measured_mov_sreg p);
        "12 (manual: 2-3)";
      ];
    ];
  let open Obs.Json in
  emit ~json_dir ~name:"micro" ~since
    ~histogram:("sigsegv_call_cycles", h_segv)
    [
      ( "dlopen_usec",
        Obs.Bench_json.measurement ~paper:(Float 400.0)
          (Float (usec_of_cycles dlopen_cycles)) );
      ( "seg_dlopen_usec",
        Obs.Bench_json.measurement ~paper:(Float 420.0)
          (Float (usec_of_cycles seg_dlopen_cycles)) );
      ( "ppl_mark_10_pages_cycles",
        Obs.Bench_json.measurement ~paper:(String "3450-5450") (Int mark10) );
      ( "sigsegv_delivery_cycles",
        Obs.Bench_json.measurement ~paper:(Int 3325)
          (Int (segv_call - ok_call)) );
      ("kernel_gp_call_cycles", Int gp_call);
      ( "mov_sreg_cycles",
        Obs.Bench_json.measurement ~paper:(Int 12)
          (Int (Cycles.measured_mov_sreg p)) );
    ]

(* --- IPC comparison --------------------------------------------------- *)

let ipc_cmp ?(json_dir = ".") ~palladium_cycles () =
  let since = Obs.Counters.snapshot () in
  (* distribution of whole warm null calls (stub entry to runtime
     return), the quantity compared against the other mechanisms *)
  let h_call = Obs.Histogram.create () in
  let _w, app = boot_app () in
  let call = Workload.warm_null_call app in
  let cpu = Kernel.cpu (Pbackend.kernel app) in
  for _ = 1 to 16 do
    let before = Cpu.cycles cpu in
    ignore (call ());
    Obs.Histogram.observe h_call (Cpu.cycles cpu - before)
  done;
  Table.print ~title:"IPC comparison (section 5.1)" ~aligns:[ Table.L ]
    ~headers:[ "Mechanism"; "Cost"; "Domain crossings"; "Notes" ]
    [
      [
        "Palladium protected call+return";
        Printf.sprintf "%d cycles" palladium_cycles;
        Table.cell_int Ipc_costs.palladium_domain_crossings;
        "measured, Pentium 200 model";
      ];
      [
        "L4 IPC request-reply (best case)";
        Printf.sprintf "%d cycles" L4.best_case_cycles;
        Table.cell_int L4.domain_crossings;
        Printf.sprintf "%.2f usec on P166" L4.usec_on_p166;
      ];
      [
        "LRPC null call";
        Printf.sprintf "%.0f usec" Lrpc.null_call_usec;
        Table.cell_int Lrpc.domain_crossings;
        Printf.sprintf "%.1fx faster than RPC on C-VAX" Lrpc.speedup_vs_rpc;
      ];
      [
        "Linux socket RPC (32 B)";
        Printf.sprintf "%.0f usec" (Rpc.round_trip_usec ~bytes:32);
        "4+";
        "Table 2 baseline";
      ];
    ];
  let open Obs.Json in
  let mech name cost_cycles cost_usec crossings =
    Obj
      [
        ("mechanism", String name);
        ("cost_cycles", (match cost_cycles with Some c -> Int c | None -> Null));
        ("cost_usec", match cost_usec with Some u -> Float u | None -> Null);
        ("domain_crossings", Int crossings);
      ]
  in
  emit ~json_dir ~name:"ipc" ~since
    ~histogram:("protected_null_call_cycles", h_call)
    [
      ( "mechanisms",
        List
          [
            mech "palladium" (Some palladium_cycles)
              (Some (usec_of_cycles palladium_cycles))
              Ipc_costs.palladium_domain_crossings;
            mech "l4" (Some L4.best_case_cycles) (Some L4.usec_on_p166)
              L4.domain_crossings;
            mech "lrpc" None (Some Lrpc.null_call_usec) Lrpc.domain_crossings;
            mech "linux_rpc_32b" None
              (Some (Rpc.round_trip_usec ~bytes:32))
              4;
          ] );
    ]

(* --- SFI ablation ----------------------------------------------------- *)

let ablation ?(json_dir = ".") ?(sizes = [ 32; 128; 512 ]) () =
  let since = Obs.Counters.snapshot () in
  let w = Palladium.boot () in
  let kernel = Palladium.kernel w in
  let task = Kernel.create_task kernel ~name:"init" in
  (* strrev over an in-module page-aligned buffer, native vs SFI *)
  let buf_image name =
    Image.create ~name
      ~bss:[ Image.bss_item ~align:4096 "sfibuf" 4096 ]
      ~exports:[ "strrev" ]
      (Ulib.strrev_body ~name:"strrev")
  in
  let run_variant ?h image n =
    let km = Kmod.insmod kernel image in
    let s = Bytes.cat (Bytes.make (n - 1) 'x') (Bytes.of_string "\000") in
    Kmod.poke km ~symbol:"sfibuf" ~off:0 s;
    let arg = Kmod.symbol km "sfibuf" in
    ignore (Kmod.invoke km task ~fn:"strrev" ~arg);
    Kmod.poke km ~symbol:"sfibuf" ~off:0 s;
    match Kmod.invoke km task ~fn:"strrev" ~arg with
    | Kernel.Completed, _, cycles ->
        (match h with
        | Some h -> Obs.Histogram.observe h cycles
        | None -> ());
        cycles
    | _ -> failwith "ablation run failed"
  in
  let h_native = Obs.Histogram.create () in
  (* identity region: the sandbox AND/OR pair costs the same wherever
     the region lies; a full-width region keeps legal addresses
     unchanged so the workload's semantics are preserved *)
  let region = { Sfi.base = 0; size = 1 lsl 30 } in
  let rows =
    List.map
      (fun n ->
        let native = run_variant ~h:h_native (buf_image "nat") n in
        let wo =
          run_variant (Sfi.sandbox_image Sfi.Write_only region (buf_image "sfw")) n
        in
        let rw =
          run_variant (Sfi.sandbox_image Sfi.Read_write region (buf_image "sfr")) n
        in
        (n, native, wo, rw))
      sizes
  in
  Table.print
    ~title:"Ablation: SFI per-instruction overhead vs hardware protection"
    ~headers:
      [ "strrev bytes"; "native"; "SFI (write)"; "SFI (r/w)"; "wo ovh"; "rw ovh" ]
    (List.map
       (fun (n, nat, wo, rw) ->
         [
           Table.cell_int n;
           Table.cell_int nat;
           Table.cell_int wo;
           Table.cell_int rw;
           Printf.sprintf "%.0f%%"
             (100.0 *. (float_of_int (wo - nat) /. float_of_int nat));
           Printf.sprintf "%.0f%%"
             (100.0 *. (float_of_int (rw - nat) /. float_of_int nat));
         ])
       rows);
  print_endline
    "(SFI overhead grows with the amount of extension code executed;\n\
    \ Palladium's cost is the fixed crossing of Table 1 — the section 2.3\n\
    \ comparison)";
  let open Obs.Json in
  emit ~json_dir ~name:"ablation" ~since
    ~histogram:("native_strrev_cycles", h_native)
    [
      ( "rows",
        List
          (List.map
             (fun (n, nat, wo, rw) ->
               Obj
                 [
                   ("strrev_bytes", Int n);
                   ("native_cycles", Int nat);
                   ("sfi_write_cycles", Int wo);
                   ("sfi_rw_cycles", Int rw);
                   ( "write_overhead",
                     Float (float_of_int (wo - nat) /. float_of_int nat) );
                   ( "rw_overhead",
                     Float (float_of_int (rw - nat) /. float_of_int nat) );
                 ])
             rows) );
    ]

(* --- SFI-full vs SFI-verified vs Palladium --------------------------- *)

(* The payoff of the load-time verifier (DESIGN.md "Load-time
   verification"): run the compiled 4-term packet filter under three
   protection schemes — blanket SFI, SFI with verifier-proved guards
   elided, and Palladium's hardware segment — over the same packet
   stream, checking they classify identically. *)
let sfi ?(json_dir = ".") ?(packets = 48) () =
  let since = Obs.Counters.snapshot () in
  let w = Palladium.boot () in
  let kernel = Palladium.kernel w in
  let task = Kernel.create_task kernel ~name:"init" in
  let terms = Filter_expr.canonical 4 in
  let text = Native_compile.filter_text terms in
  let region = { Sfi.base = 0; size = 1 lsl 30 } in
  let pktbuf_bytes = 2048 in
  (* the argument is the packet buffer's segment offset; telling the
     verifier it lies below the region's top (minus the buffer) is
     what lets it prove the filter's loads in-bounds *)
  let arg = (0, region.Sfi.size - pktbuf_bytes) in
  let guards mode =
    Sfi.inserted_instructions ~mode ~entries:[ "filter" ] ~arg ~region
      Sfi.Read_write text
  in
  let g_full = guards Sfi.Full in
  let g_verified = guards Sfi.Verified in
  if g_verified <> 0 then
    Printf.ksprintf failwith
      "sfi: verifier left %d of %d guards on the compiled filter (expected \
       full elision)"
      g_verified g_full;
  let filter_image name =
    Image.create ~name
      ~bss:[ Image.bss_item ~align:4096 "pktbuf" pktbuf_bytes ]
      ~exports:[ "filter" ] text
  in
  let load_kmod image =
    let km = Kmod.insmod kernel image in
    let buf = Kmod.symbol km "pktbuf" in
    (km, buf)
  in
  let native = load_kmod (filter_image "vfnat") in
  let full =
    load_kmod
      (Sfi.sandbox_image ~arg Sfi.Read_write region (filter_image "vffull"))
  in
  let verified =
    load_kmod
      (Sfi.sandbox_image ~mode:Sfi.Verified ~arg Sfi.Read_write region
         (filter_image "vfver"))
  in
  let run_kmod (km, buf) pkt =
    Kmod.poke km ~symbol:"pktbuf" ~off:0 (Bytes.make pktbuf_bytes '\000');
    Kmod.poke km ~symbol:"pktbuf" ~off:0 pkt;
    match Kmod.invoke km task ~fn:"filter" ~arg:buf with
    | Kernel.Completed, v, cycles -> (v, cycles)
    | _ -> failwith "sfi: filter invocation failed"
  in
  let seg = Palladium.create_kernel_segment w in
  let nf = Native_compile.load seg terms in
  let stream =
    List.map Packet.to_bytes
      (Pkt_gen.stream (Pkt_gen.create ()) ~count:packets ~match_percent:25)
  in
  let h_full = Obs.Histogram.create () in
  let totals = Array.make 4 0 in
  let matches = ref 0 in
  List.iter
    (fun pkt ->
      let vn, cn = run_kmod native pkt in
      let vf, cf = run_kmod full pkt in
      let vv, cv = run_kmod verified pkt in
      let vp, cp =
        match Native_compile.run nf task ~packet:pkt with
        | Ok (v, c) -> (v, c)
        | Error e -> Fmt.failwith "sfi: %a" Kernel_ext.pp_invoke_error e
      in
      if not (vn = vf && vn = vv && vn = vp) then
        failwith "sfi: protection variants disagree on a packet";
      if vn = 1 then incr matches;
      Obs.Histogram.observe h_full cf;
      totals.(0) <- totals.(0) + cn;
      totals.(1) <- totals.(1) + cf;
      totals.(2) <- totals.(2) + cv;
      totals.(3) <- totals.(3) + cp)
    stream;
  let mean i = float_of_int totals.(i) /. float_of_int packets in
  Table.print
    ~title:
      "SFI guard elision: 4-term compiled filter, mean CPU cycles per packet"
    ~headers:[ "variant"; "guard instrs"; "cycles/pkt" ]
    [
      [ "native (unprotected)"; "0"; Printf.sprintf "%.1f" (mean 0) ];
      [ "SFI full"; string_of_int g_full; Printf.sprintf "%.1f" (mean 1) ];
      [
        "SFI verified"; string_of_int g_verified; Printf.sprintf "%.1f" (mean 2);
      ];
      [ "Palladium (segment)"; "0"; Printf.sprintf "%.1f" (mean 3) ];
    ];
  Printf.printf
    "(verifier proved %d of %d guard instructions redundant; %d/%d packets \
     matched)\n"
    (g_full - g_verified) g_full !matches packets;
  let open Obs.Json in
  emit ~json_dir ~name:"sfi" ~since
    ~histogram:("sfi_full_cycles_per_packet", h_full)
    [
      ( "guards",
        Obj [ ("sfi_full", Int g_full); ("sfi_verified", Int g_verified) ] );
      ( "cycles_per_packet",
        Obj
          [
            ("native", Float (mean 0));
            ("sfi_full", Float (mean 1));
            ("sfi_verified", Float (mean 2));
            ("palladium", Float (mean 3));
          ] );
      ("packets", Int packets);
      ("matched", Int !matches);
    ]

(* --- Protection-backend comparison ------------------------------------ *)

(* One matrix: every protection backend — segmentation, protection
   keys and the two SFI flavours — over the same workloads (protected
   null call, string reverse, the compiled 4-term packet filter, the
   LibCGI web-server sweep and a rogue-store fault injection), with
   per-backend TLB pressure, guard counts and audit coverage.  The
   backends differ only in boundary hardware, so every architectural
   output must agree: the reversed string, the per-packet filter
   verdicts, the requests completed, and containment of the rogue
   store. *)

(* The comparators: the two application-hosting backends plus the two
   SFI flavours, which rewrite modules and exist only here. *)
type bk_backend = Hosted of Pbackend.kind | Rewritten of Sfi.mode

let bk_backends =
  [
    Hosted Pbackend.Segmentation; Hosted Pbackend.Mpk; Rewritten Sfi.Full;
    Rewritten Sfi.Verified;
  ]

let bk_name = function
  | Hosted k -> Pbackend.kind_name k
  | Rewritten Sfi.Full -> "sfi-full"
  | Rewritten Sfi.Verified -> "sfi-verified"

type bk_row = {
  bk_kind : bk_backend;
  bk_xfer_cycles : float; (* mean protected null-call cycles *)
  bk_strrev : string;
  bk_filter_cycles : float; (* mean cycles per packet *)
  bk_verdicts : int list;
  bk_rps : float;
  bk_requests : int;
  bk_contained : bool;
  bk_fault_class : string;
  bk_guards : int; (* SFI guard instructions on the filter *)
  bk_tlb_hits : int;
  bk_tlb_misses : int;
  bk_tlb_flushes : int;
  bk_audit_ok : bool;
  bk_audit_findings : int;
  bk_audit_invariants : int;
}

let bk_region = { Sfi.base = 0; size = 1 lsl 30 }

let bk_string = "backends" (* 8 bytes: two u32 reads under Kmod *)

let bk_u32s_to_string ws =
  String.init
    (4 * List.length ws)
    (fun idx -> Char.chr ((List.nth ws (idx / 4) lsr (8 * (idx mod 4))) land 0xff))

let bk_fault_name = function
  | X86.Fault.Page_key _ -> "page-key"
  | X86.Fault.Page_privilege _ -> "page-privilege"
  | f -> Fmt.str "%a" X86.Fault.pp f

(* Shared per-row finisher: webserver sweep priced at this backend's
   measured transfer cost, TLB pressure since the row began, audit
   coverage of the row's world. *)
let bk_finish ~since ~requests ~kernel row =
  let ws =
    Server.run ~total:requests ~invocation:Cgi_model.Libcgi_protected
      ~bytes:1024
      ~protected_call_usec:(row.bk_xfer_cycles /. mhz)
      ()
  in
  let d = Obs.Counters.delta ~since in
  let g n = Option.value (List.assoc_opt n d) ~default:0 in
  let report = Paudit.force_audit ~context:"bench backends" kernel in
  {
    row with
    bk_rps = ws.Server.throughput_rps;
    bk_requests = ws.Server.requests;
    bk_tlb_hits = g "x86.tlb.hits";
    bk_tlb_misses = g "x86.tlb.misses";
    bk_tlb_flushes = g "x86.tlb.flushes";
    bk_audit_ok = Audit.Engine.ok report;
    bk_audit_findings = List.length report.Audit.Engine.rp_findings;
    bk_audit_invariants = List.length Audit.Invariant.catalogue;
  }

let bk_empty kind =
  {
    bk_kind = kind;
    bk_xfer_cycles = 0.0;
    bk_strrev = "";
    bk_filter_cycles = 0.0;
    bk_verdicts = [];
    bk_rps = 0.0;
    bk_requests = 0;
    bk_contained = false;
    bk_fault_class = "";
    bk_guards = 0;
    bk_tlb_hits = 0;
    bk_tlb_misses = 0;
    bk_tlb_flushes = 0;
    bk_audit_ok = false;
    bk_audit_findings = 0;
    bk_audit_invariants = 0;
  }

(* Application-hosting backends (segmentation, protection keys): one
   world, one backend-generic application, every workload through
   [Pbackend]. *)
let bk_app_row ~hist ~stream ~filter_image ~calls ~requests kind =
  let since = Obs.Counters.snapshot () in
  let w = Palladium.boot ~backend:kind () in
  let app = Palladium.create_backend_app w ~name:"bk" in
  (* transfer cost: protected null call *)
  let call = Workload.warm_null_call app in
  let cyc = ref 0 in
  for _ = 1 to calls do
    match call () with
    | Ok (_, c) ->
        Obs.Histogram.observe hist c;
        cyc := !cyc + c
    | Error e -> Fmt.failwith "backends: null call: %a" Pbackend.pp_call_error e
  done;
  (* strrev over a shared heap buffer *)
  let rev = Pbackend.load app Ulib.strrev_image in
  let rev_prep = Pbackend.resolve app rev "strrev" in
  let buf = Pbackend.xmalloc rev 64 in
  Pbackend.poke_bytes app buf (Bytes.of_string (bk_string ^ "\000"));
  (match Pbackend.call app ~prepare:rev_prep ~arg:buf with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "backends: strrev: %a" Pbackend.pp_call_error e);
  let reversed =
    Bytes.to_string (Pbackend.peek_bytes app buf (String.length bk_string))
  in
  (* compiled packet filter, hosted as a user-level extension *)
  let fext = Pbackend.load app filter_image in
  let fprep = Pbackend.resolve app fext "filter" in
  let fbuf = Pbackend.dlsym_data fext Pconfig.shared_area_symbol in
  let fcyc = ref 0 in
  let verdicts =
    List.map
      (fun pkt ->
        Pbackend.poke_bytes app fbuf
          (Bytes.make Native_compile.shared_bytes '\000');
        Pbackend.poke_bytes app fbuf pkt;
        match Pbackend.call app ~prepare:fprep ~arg:fbuf with
        | Ok (v, c) ->
            fcyc := !fcyc + c;
            v
        | Error e -> Fmt.failwith "backends: filter: %a" Pbackend.pp_call_error e)
      stream
  in
  (* fault injection: extension store to hidden application memory *)
  let task = Pbackend.task app in
  let area =
    Address_space.mmap task.Task.asp ~len:4096 ~perms:Vm_area.rw Vm_area.Data
  in
  Address_space.populate task.Task.asp area;
  let cell = area.Vm_area.va_start in
  Pbackend.poke_u32 app cell 0x5eed;
  let rogue = Pbackend.load app Ulib.rogue_write_image in
  let poke = Pbackend.resolve app rogue "poke" in
  let contained, fault_class =
    match Pbackend.call app ~prepare:poke ~arg:cell with
    | Ok _ -> (false, "completed")
    | Error (Pbackend.Protection_fault f) ->
        (Pbackend.peek_u32 app cell = 0x5eed, bk_fault_name f)
    | Error e -> (false, Fmt.str "%a" Pbackend.pp_call_error e)
  in
  let row =
    {
      (bk_empty (Hosted kind)) with
      bk_xfer_cycles = float_of_int !cyc /. float_of_int calls;
      bk_strrev = reversed;
      bk_filter_cycles =
        float_of_int !fcyc /. float_of_int (List.length stream);
      bk_verdicts = verdicts;
      bk_contained = contained;
      bk_fault_class = fault_class;
    }
  in
  let row = bk_finish ~since ~requests ~kernel:(Palladium.kernel w) row in
  Palladium.teardown w;
  row

(* SFI backends: the same workloads as rewritten kernel modules.  SFI
   has no transfer gate — its tax is the inline guards — so the
   "transfer" is a bare module invocation, and containment comes from
   address masking rather than a fault. *)
let bk_sfi_row ~hist ~stream ~filter_image ~terms ~calls ~requests mode =
  let since = Obs.Counters.snapshot () in
  let w = Palladium.boot () in
  let kernel = Palladium.kernel w in
  let task = Kernel.create_task kernel ~name:"bk" in
  let invoke km fn arg =
    match Kmod.invoke km task ~fn ~arg with
    | Kernel.Completed, v, c -> (v, c)
    | _ -> failwith "backends: sfi invocation failed"
  in
  let nm =
    Kmod.insmod kernel
      (Sfi.sandbox_image ~mode Sfi.Read_write bk_region Ulib.null_image)
  in
  ignore (invoke nm "null_fn" 1);
  let cyc = ref 0 in
  for _ = 1 to calls do
    let _, c = invoke nm "null_fn" 1 in
    Obs.Histogram.observe hist c;
    cyc := !cyc + c
  done;
  (* strrev with the buffer in the module's own bss *)
  let rev_image =
    Image.create ~name:"bkrev"
      ~bss:[ Image.bss_item ~align:4 "buf" 64 ]
      ~exports:[ "strrev" ]
      (Ulib.strrev_body ~name:"strrev")
  in
  let rm =
    Kmod.insmod kernel (Sfi.sandbox_image ~mode Sfi.Read_write bk_region rev_image)
  in
  Kmod.poke rm ~symbol:"buf" ~off:0 (Bytes.of_string (bk_string ^ "\000"));
  ignore (invoke rm "strrev" (Kmod.symbol rm "buf"));
  let reversed =
    bk_u32s_to_string
      [ Kmod.peek_u32 rm ~symbol:"buf" ~off:0;
        Kmod.peek_u32 rm ~symbol:"buf" ~off:4 ]
  in
  (* compiled filter; the verifier elides guards it can prove safe *)
  let arg = (0, bk_region.Sfi.size - Native_compile.shared_bytes) in
  let fm =
    Kmod.insmod kernel
      (Sfi.sandbox_image ~mode ~arg Sfi.Read_write bk_region filter_image)
  in
  let fbuf = Kmod.symbol fm Pconfig.shared_area_symbol in
  let guards =
    Sfi.inserted_instructions ~mode ~entries:[ "filter" ] ~arg
      ~region:bk_region Sfi.Read_write
      (Native_compile.filter_text terms)
  in
  let fcyc = ref 0 in
  let verdicts =
    List.map
      (fun pkt ->
        Kmod.poke fm ~symbol:Pconfig.shared_area_symbol ~off:0
          (Bytes.make Native_compile.shared_bytes '\000');
        Kmod.poke fm ~symbol:Pconfig.shared_area_symbol ~off:0 pkt;
        let v, c = invoke fm "filter" fbuf in
        fcyc := !fcyc + c;
        v)
      stream
  in
  (* fault injection: the rogue store aims outside the region and the
     inserted mask forces it back inside — containment by rewriting *)
  let gm =
    Kmod.insmod kernel
      (Sfi.sandbox_image ~mode Sfi.Read_write bk_region Ulib.rogue_write_image)
  in
  let outside = bk_region.Sfi.size + 0x44 in
  let contained, fault_class =
    match Kmod.invoke gm task ~fn:"poke" ~arg:outside with
    | Kernel.Completed, _, _ -> (true, "sfi-masked")
    | _ -> (false, "faulted")
  in
  let row =
    {
      (bk_empty (Rewritten mode)) with
      bk_xfer_cycles = float_of_int !cyc /. float_of_int calls;
      bk_strrev = reversed;
      bk_filter_cycles =
        float_of_int !fcyc /. float_of_int (List.length stream);
      bk_verdicts = verdicts;
      bk_contained = contained;
      bk_fault_class = fault_class;
      bk_guards = guards;
    }
  in
  let row = bk_finish ~since ~requests ~kernel row in
  Palladium.teardown w;
  row

let backends ?(json_dir = ".") ?(packets = 32) ?(calls = 60) ?(requests = 300)
    () =
  let since = Obs.Counters.snapshot () in
  let stream =
    List.map Packet.to_bytes
      (Pkt_gen.stream (Pkt_gen.create ()) ~count:packets ~match_percent:25)
  in
  let terms = Filter_expr.canonical 4 in
  let filter_image = Native_compile.image terms in
  let hist = Obs.Histogram.create () in
  let rows =
    List.map
      (function
        | Hosted kind ->
            bk_app_row ~hist ~stream ~filter_image ~calls ~requests kind
        | Rewritten mode ->
            bk_sfi_row ~hist ~stream ~filter_image ~terms ~calls ~requests mode)
      bk_backends
  in
  let base = List.hd rows in
  let agree =
    List.for_all
      (fun r ->
        String.equal r.bk_strrev base.bk_strrev
        && r.bk_verdicts = base.bk_verdicts
        && r.bk_requests = base.bk_requests
        && r.bk_contained)
      rows
  in
  let find k = List.find (fun r -> r.bk_kind = k) rows in
  let mpk_cheaper =
    (find (Hosted Pbackend.Mpk)).bk_xfer_cycles
    < (find (Hosted Pbackend.Segmentation)).bk_xfer_cycles
  in
  let matches = List.length (List.filter (( = ) 1) base.bk_verdicts) in
  Table.print
    ~title:
      "Protection backends: same workloads, different boundary enforcement"
    ~headers:
      [
        "backend"; "xfer cyc"; "filter cyc/pkt"; "req/s"; "fault"; "guards";
        "tlb miss"; "audit";
      ]
    (List.map
       (fun r ->
         [
           bk_name r.bk_kind;
           Printf.sprintf "%.1f" r.bk_xfer_cycles;
           Printf.sprintf "%.1f" r.bk_filter_cycles;
           Printf.sprintf "%.0f" r.bk_rps;
           r.bk_fault_class;
           string_of_int r.bk_guards;
           string_of_int r.bk_tlb_misses;
           Printf.sprintf "%s (%d/%d)"
             (if r.bk_audit_ok then "ok" else "FINDINGS")
             r.bk_audit_invariants r.bk_audit_findings;
         ])
       rows);
  Printf.printf
    "(%s; mpk transfer %s segmentation; %d/%d packets matched)\n"
    (if agree then "all backends agree on every workload output"
     else "BACKENDS DISAGREE")
    (if mpk_cheaper then "cheaper than" else "NOT cheaper than")
    matches packets;
  if not agree then failwith "bench backends: backends disagree on outputs";
  if not mpk_cheaper then
    failwith "bench backends: mpk transfer not cheaper than segmentation";
  let open Obs.Json in
  let row_json r =
    Obj
      [
        ("backend", String (bk_name r.bk_kind));
        ("transfer_cycles", Float r.bk_xfer_cycles);
        ("strrev", String r.bk_strrev);
        ("filter_cycles_per_packet", Float r.bk_filter_cycles);
        ( "filter_matches",
          Int (List.length (List.filter (( = ) 1) r.bk_verdicts)) );
        ("webserver_rps", Float r.bk_rps);
        ("webserver_requests", Int r.bk_requests);
        ("fault_contained", Bool r.bk_contained);
        ("fault_class", String r.bk_fault_class);
        ("guard_instructions", Int r.bk_guards);
        ( "tlb",
          Obj
            [
              ("hits", Int r.bk_tlb_hits);
              ("misses", Int r.bk_tlb_misses);
              ("flushes", Int r.bk_tlb_flushes);
            ] );
        ( "audit",
          Obj
            [
              ("ok", Bool r.bk_audit_ok);
              ("findings", Int r.bk_audit_findings);
              ("invariants_checked", Int r.bk_audit_invariants);
            ] );
      ]
  in
  emit ~json_dir ~name:"backends" ~since
    ~histogram:("backends_transfer_cycles", hist)
    [
      ("backends", List (List.map row_json rows));
      ("agreement", Bool agree);
      ("mpk_cheaper_than_seg", Bool mpk_cheaper);
      ( "workloads",
        List
          [
            String "null-call"; String "strrev"; String "filter";
            String "webserver"; String "fault-injection";
          ] );
      ("packets", Int packets);
      ("calls", Int calls);
      ("requests", Int requests);
    ]

(* --- Verifier soundness oracle ----------------------------------------- *)

(* Falsification run for the static analysis behind guard elision:
   random/mutated programs go through verify, then execute under both
   engines in a world whose segment limits equal the analysis region,
   with every static access classification checked against the
   concrete effective addresses (see [Soundness]).  Zero violations is
   the pass condition; any violation leaves a minimised
   SOUNDNESS_*.json counterexample behind and fails the run. *)
let soundness ?(json_dir = ".") ?(specimens = 200) ?(seed = 0xA11D)
    ?(fuel = 2000) () =
  let since = Obs.Counters.snapshot () in
  let s = Soundness.run ~json_dir ~fuel ~count:specimens ~seed () in
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) s.Soundness.s_spec_verify_us;
  let open Soundness in
  Table.print
    ~title:
      (Printf.sprintf
         "Verifier soundness oracle: %d specimens (seed %#x), both engines"
         specimens seed)
    ~headers:[ "quantity"; "count" ]
    [
      [ "specimens skipped (flow errors)"; string_of_int s.s_skipped ];
      [ "engine runs checked"; string_of_int s.s_runs ];
      [ "runs diverged (wild store)"; string_of_int s.s_diverged ];
      [ "accesses classified"; string_of_int s.s_accesses ];
      [ "  proved"; string_of_int s.s_proved ];
      [ "  stack-relative"; string_of_int s.s_stack_rel ];
      [ "  runtime-checked"; string_of_int s.s_runtime ];
      [ "  out-of-bounds"; string_of_int s.s_oob ];
      [ "guard-elidable instructions"; string_of_int s.s_elided ];
      [ "contract violations"; string_of_int s.s_violations ];
    ];
  Printf.printf "(static analysis: %d instrs in %.3fs CPU)\n" s.s_instrs
    s.s_verify_s;
  let open Obs.Json in
  emit ~json_dir ~name:"verify" ~since
    ~histogram:("verify_us_per_specimen", h)
    [
      ("seed", Int seed);
      ("specimens", Int specimens);
      ("fuel", Int fuel);
      ("soundness", Soundness.summary_json s);
    ];
  if s.s_violations <> 0 then
    Printf.ksprintf failwith
      "soundness: %d contract violations across %d specimens (minimised \
       counterexamples in SOUNDNESS_*.json)"
      s.s_violations specimens;
  s

(* --- Certified WCET vs observed worst case ----------------------------- *)

(* How tight are the verifier's certified resource bounds?  Each
   catalogue extension is verified the way the loaders verify it (same
   entries/externs shape, the oracle region), then driven in the bare
   oracle world while the architectural cycle ledger runs; the table
   compares the certified WCET/stack/instruction bounds against the
   observed worst case over the workload.  Pass conditions: no
   observation may exceed a finite certified bound, and the compiled
   4-term packet filter must be certified finite with
   static/observed-worst tightness at most 2x.  The admission rows
   demonstrate what the bound buys the web-server model: with a
   deadline and a per-handler WCET, hopeless requests are shed at
   arrival instead of missing the deadline in the queue. *)

type wcet_row = {
  wr_name : string;
  wr_bounds : Vcost.bounds;
  wr_worst : int; (* observed worst architectural cycles *)
  wr_mean : float;
  wr_stack : int; (* observed worst stack depth, bytes *)
  wr_retired : int; (* observed worst retired instructions *)
  wr_runs : int;
}

let wcet ?(json_dir = ".") ?(packets = 64) () =
  let since = Obs.Counters.snapshot () in
  let org = Soundness.org in
  let p = Cycles.pentium in
  (* Verify an image the way the loaders do: exports as entries, data
     and imports as externs, no privileged lint (ring-0 worlds). *)
  let bounds_of (image : Image.t) =
    let report =
      Verify.verify ~org ~entries:image.Image.exports
        ~externs:(Image.externs image)
        ~region:(0, Soundness.region_hi) ~lint_privileged:false
        ~name:image.Image.name image.Image.text
    in
    report.Verify.r_bounds
  in
  (* One invocation in the oracle world: lay the image data out at
     0x6000, stage the stack as [ret -> halt pad][args...], run to the
     pad's hlt and read the architectural cycle ledger (minus the
     pad's own hlt charge). *)
  let observe (image : Image.t) ~entry ~args ~pokes =
    let text = image.Image.text in
    let n_instrs =
      List.length
        (List.filter (function Asm.I _ -> true | Asm.L _ -> false) text)
    in
    let halt_addr = org + (Instr.size * n_instrs) in
    let prog = text @ [ Asm.L "bench$halt"; Asm.I Instr.Hlt ] in
    let data_syms = Image.layout_data image ~base:0x6000 in
    let extern name =
      List.find_map
        (fun (n, addr, _) -> if n = name then Some addr else None)
        data_syms
    in
    let setup cpu =
      let ds = Cpu.seg_reg cpu Reg.DS in
      let poke_bytes addr bytes =
        Bytes.iteri
          (fun k b ->
            Cpu.write_mem cpu ds ~offset:(addr + k) ~size:1 (Char.code b))
          bytes
      in
      List.iter
        (fun (_, addr, init) ->
          match init with Some bytes -> poke_bytes addr bytes | None -> ())
        data_syms;
      List.iter (fun (addr, bytes) -> poke_bytes addr bytes) pokes;
      let esp = 0x7F00 - (4 * (1 + List.length args)) in
      Cpu.write_mem cpu ds ~offset:esp ~size:4 halt_addr;
      List.iteri
        (fun k arg -> Cpu.write_mem cpu ds ~offset:(esp + 4 + (4 * k)) ~size:4 arg)
        args;
      Cpu.set_reg cpu Reg.ESP esp
    in
    let r = Soundness.measure ~setup ~extern ~entry prog in
    (match r.Soundness.x_stop with
    | Cpu.Halted -> ()
    | _ -> Printf.ksprintf failwith "wcet: %s did not reach the halt pad" entry);
    (* the pad's hlt retires inside the measured window but outside
       the verified routine; take it back out *)
    ( r.Soundness.x_cycles - p.Cycles.hlt,
      r.Soundness.x_stack,
      r.Soundness.x_retired - 1 )
  in
  let row name image ~entry runs =
    let bounds = bounds_of image in
    let obs = List.map (fun (args, pokes) -> observe image ~entry ~args ~pokes) runs in
    let worst f = List.fold_left (fun a o -> max a (f o)) 0 obs in
    let cycles = List.map (fun (c, _, _) -> c) obs in
    {
      wr_name = name;
      wr_bounds = bounds;
      wr_worst = worst (fun (c, _, _) -> c);
      wr_mean =
        float_of_int (List.fold_left ( + ) 0 cycles)
        /. float_of_int (max 1 (List.length cycles));
      wr_stack = worst (fun (_, s, _) -> s);
      wr_retired = worst (fun (_, _, n) -> n);
      wr_runs = List.length obs;
    }
  in
  (* The compiled 4-term filter over a packet stream: the matching
     packet drives the longest path (every term true), the random rest
     exercise the early rejects. *)
  let terms = Filter_expr.canonical 4 in
  let filter_image = Native_compile.image terms in
  let pkt_base = 0x4000 in
  let gen = Pkt_gen.create () in
  let stream =
    Pkt_gen.matching_packet ()
    :: List.init (max 0 (packets - 1)) (fun _ ->
           Pkt_gen.random_packet gen ~match_percent:50)
  in
  let filter_runs =
    List.map
      (fun pkt -> ([ pkt_base ], [ (pkt_base, Packet.to_bytes pkt) ]))
      stream
  in
  let str = Bytes.of_string "palladium\x00" in
  let rows =
    [
      row "cfilter (4 terms)" filter_image ~entry:"filter" filter_runs;
      row "work (64 units)" (Ulib.work_image ~units:64) ~entry:"work"
        [ ([], []) ];
      row "counter bump" Ulib.counter_image ~entry:"bump" [ ([], []) ];
      row "null_fn" Ulib.null_image ~entry:"null_fn" [ ([], []) ];
      row "strrev (9 chars)" Ulib.strrev_image ~entry:"strrev"
        [ ([ 0x5000 ], [ (0x5000, str) ]) ];
    ]
  in
  let cell_bound = function
    | Vcost.Finite v -> string_of_int v
    | Vcost.Unbounded -> "unbounded"
  in
  let tightness r =
    match r.wr_bounds.Vcost.b_wcet_cycles with
    | Vcost.Finite w when r.wr_worst > 0 ->
        Some (float_of_int w /. float_of_int r.wr_worst)
    | _ -> None
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Certified WCET vs observed worst case (%d filter packets)"
         (List.length stream))
    ~headers:
      [ "extension"; "WCET"; "obs worst"; "obs mean"; "static/obs"; "stack"; "obs" ]
    (List.map
       (fun r ->
         [
           r.wr_name;
           cell_bound r.wr_bounds.Vcost.b_wcet_cycles;
           string_of_int r.wr_worst;
           Printf.sprintf "%.1f" r.wr_mean;
           (match tightness r with
           | Some t -> Printf.sprintf "%.2fx" t
           | None -> "-");
           cell_bound r.wr_bounds.Vcost.b_max_stack_bytes;
           string_of_int r.wr_stack;
         ])
       rows);
  (* What the bound buys at admission time: the web-server model with
     a deadline sheds requests whose certified worst-case completion
     already misses it, instead of queueing them to time out. *)
  let handler_usec =
    Cgi_model.request_usec ~invocation:Cgi_model.Libcgi_protected ~bytes:2048
      ~protected_call_usec:(usec_of_cycles 144)
  in
  let deadline = 8.0 *. handler_usec in
  let total = 400 in
  let no_adm =
    Server.run ~concurrency:30 ~total ~deadline_usec:deadline
      ~invocation:Cgi_model.Libcgi_protected ~bytes:2048
      ~protected_call_usec:(usec_of_cycles 144) ()
  in
  let adm =
    Server.run ~concurrency:30 ~total ~deadline_usec:deadline
      ~handler_wcet_usec:handler_usec
      ~invocation:Cgi_model.Libcgi_protected ~bytes:2048
      ~protected_call_usec:(usec_of_cycles 144) ()
  in
  Table.print
    ~title:
      (Printf.sprintf
         "WCET admission control (deadline %.0f usec, handler WCET %.1f usec)"
         deadline handler_usec)
    ~headers:[ "policy"; "completed"; "shed"; "throughput (rps)" ]
    [
      [
        "no admission";
        string_of_int no_adm.Server.requests;
        string_of_int no_adm.Server.shed;
        Printf.sprintf "%.0f" no_adm.Server.throughput_rps;
      ];
      [
        "WCET admission";
        string_of_int adm.Server.requests;
        string_of_int adm.Server.shed;
        Printf.sprintf "%.0f" adm.Server.throughput_rps;
      ];
    ];
  let h = Obs.Histogram.create () in
  List.iter
    (fun (args, pokes) ->
      let c, _, _ = observe filter_image ~entry:"filter" ~args ~pokes in
      Obs.Histogram.observe h c)
    filter_runs;
  let open Obs.Json in
  let bound_json = function
    | Vcost.Finite v -> Int v
    | Vcost.Unbounded -> Null
  in
  emit ~json_dir ~name:"wcet" ~since
    ~histogram:("filter_cycles_per_packet", h)
    [
      ( "rows",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("name", String r.wr_name);
                   ("wcet_cycles", bound_json r.wr_bounds.Vcost.b_wcet_cycles);
                   ( "max_stack_bytes",
                     bound_json r.wr_bounds.Vcost.b_max_stack_bytes );
                   ("max_instrs", bound_json r.wr_bounds.Vcost.b_max_instrs);
                   ("observed_worst_cycles", Int r.wr_worst);
                   ("observed_mean_cycles", Float r.wr_mean);
                   ("observed_worst_stack", Int r.wr_stack);
                   ("observed_worst_instrs", Int r.wr_retired);
                   ("runs", Int r.wr_runs);
                   ( "tightness",
                     match tightness r with Some t -> Float t | None -> Null );
                 ])
             rows) );
      ( "admission",
        Obj
          [
            ("deadline_usec", Float deadline);
            ("handler_wcet_usec", Float handler_usec);
            ("total", Int total);
            ( "no_admission",
              Obj
                [
                  ("completed", Int no_adm.Server.requests);
                  ("shed", Int no_adm.Server.shed);
                ] );
            ( "wcet_admission",
              Obj
                [
                  ("completed", Int adm.Server.requests);
                  ("shed", Int adm.Server.shed);
                ] );
          ] );
    ];
  (* Pass conditions. *)
  List.iter
    (fun r ->
      (match r.wr_bounds.Vcost.b_wcet_cycles with
      | Vcost.Finite w when r.wr_worst > w ->
          Printf.ksprintf failwith
            "wcet: %s observed %d cycles above its certified WCET %d"
            r.wr_name r.wr_worst w
      | _ -> ());
      (match r.wr_bounds.Vcost.b_max_stack_bytes with
      | Vcost.Finite s when r.wr_stack > s ->
          Printf.ksprintf failwith
            "wcet: %s observed stack %d bytes above its certified bound %d"
            r.wr_name r.wr_stack s
      | _ -> ());
      match r.wr_bounds.Vcost.b_max_instrs with
      | Vcost.Finite n when r.wr_retired > n ->
          Printf.ksprintf failwith
            "wcet: %s retired %d instructions above its certified bound %d"
            r.wr_name r.wr_retired n
      | _ -> ())
    rows;
  (match rows with
  | filter_row :: _ -> (
      match tightness filter_row with
      | Some t when t <= 2.0 -> ()
      | Some t ->
          Printf.ksprintf failwith
            "wcet: filter tightness %.2fx exceeds the 2x bar" t
      | None -> failwith "wcet: the 4-term filter must be certified finite")
  | [] -> ());
  if adm.Server.shed = 0 then
    failwith "wcet: admission control shed nothing under an impossible deadline";
  if no_adm.Server.shed <> 0 then
    failwith "wcet: shed requests without a handler WCET configured";
  if adm.Server.requests + adm.Server.shed <> total then
    Printf.ksprintf failwith "wcet: %d completed + %d shed <> %d total"
      adm.Server.requests adm.Server.shed total;
  rows

(* --- Audit cost: full vs incremental re-audit -------------------------- *)

(* How much does the protection-state auditor cost?  A full audit
   snapshots every descriptor table, page directory and TSS and runs
   the whole invariant catalogue plus the reachability proof; an
   incremental re-audit consults the generation fingerprint and skips
   when nothing protection-relevant changed.  Host wall-clock
   (Sys.time), not simulated cycles: the auditor runs in the loader,
   outside the simulated machine. *)
let audit ?(json_dir = ".") ?(full_iters = 25) () =
  let since = Obs.Counters.snapshot () in
  let world = Audit_scenarios.build () in
  let kernel = world.Audit_scenarios.kernel in
  let time_sec f =
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let h_usec = Obs.Histogram.create () in
  let full_total =
    time_sec (fun () ->
        for _ = 1 to full_iters do
          let t = time_sec (fun () -> ignore (Audit_scenarios.audit_world world)) in
          Obs.Histogram.observe h_usec (max 1 (int_of_float (t *. 1e6)))
        done)
  in
  (* Prime the generation cache, then hammer the incremental path: the
     machine state is untouched, so every call must skip. *)
  Paudit.maybe_audit ~context:"bench" kernel;
  let incr_iters = full_iters * 200 in
  let incr_total =
    time_sec (fun () ->
        for _ = 1 to incr_iters do
          Paudit.maybe_audit ~context:"bench" kernel
        done)
  in
  let per_full = full_total /. float_of_int full_iters in
  let per_incr = max 1e-9 (incr_total /. float_of_int incr_iters) in
  let report = Audit_scenarios.audit_world world in
  Printf.printf
    "audit: %d invariants + reachability over %d GDT/IDT/LDT entries\n"
    report.Audit.Engine.rp_checked
    (report.Audit.Engine.rp_reach.Audit.Reach.r_nodes
    + List.length report.Audit.Engine.rp_reach.Audit.Reach.r_audited);
  Printf.printf "  full audit        %8.1f usec  (%7.0f audits/sec)\n"
    (per_full *. 1e6)
    (1.0 /. max 1e-9 per_full);
  Printf.printf "  incremental skip  %8.3f usec  (%7.0f checks/sec, %.0fx)\n"
    (per_incr *. 1e6) (1.0 /. per_incr) (per_full /. per_incr);
  let open Obs.Json in
  emit ~json_dir ~name:"audit" ~since
    ~histogram:("audit_full_usec", h_usec)
    [
      ( "full",
        Obj
          [
            ("iterations", Int full_iters);
            ("usec_per_audit", Float (per_full *. 1e6));
            ("audits_per_sec", Float (1.0 /. max 1e-9 per_full));
          ] );
      ( "incremental",
        Obj
          [
            ("iterations", Int incr_iters);
            ("usec_per_check", Float (per_incr *. 1e6));
            ("checks_per_sec", Float (1.0 /. per_incr));
            ("speedup", Float (per_full /. per_incr));
          ] );
      ("invariants", Int (List.length Audit.Invariant.catalogue));
      ("findings", Int (List.length report.Audit.Engine.rp_findings));
    ]

(* --- Domain-parallel fleet sweep ------------------------------------- *)

type parallel_outcome = {
  par_domains : int;
  par_worlds : int;
  par_serial_sec : float;
  par_parallel_sec : float;
  par_speedup : float;
  par_deterministic : bool;
  par_serial_requests : int;
  par_merged_requests : int; (* merged fleet.request_usec count *)
}

let parallel ?(json_dir = ".") ?(domains = 4) ?worlds ?(calls = 2000)
    ?(requests = 20000) () =
  let worlds = match worlds with Some w -> w | None -> max domains 4 in
  (* one batch per world: a call sweep, then one web-server slice *)
  let f = Workload.fleet_world ~until:(fun b -> b >= 1) ~calls ~requests in
  (* identical seeds, serial then sharded over domains *)
  let serial = Fleet.run ~domains:1 ~worlds f in
  let par = Fleet.run ~domains ~worlds f in
  let div = Fleet.divergences serial par in
  let speedup =
    Fleet.speedup ~serial:(Fleet.elapsed serial) ~parallel:(Fleet.elapsed par)
  in
  let sum_requests fl =
    List.fold_left
      (fun acc r -> acc + r.Fleet.wr_value.Workload.fw_requests)
      0 (Fleet.results fl)
  in
  let merged = Fleet.merged par in
  let merged_req =
    match Obs.Sink.find_histogram merged "fleet.request_usec" with
    | Some h -> Obs.Histogram.count h
    | None -> 0
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Fleet: %d isolated worlds, serial vs %d domains (%d cores)" worlds
         domains
         (Domain.recommended_domain_count ()))
    ~headers:[ "World"; "Calls"; "Requests"; "Elapsed (s)" ]
    (List.map
       (fun r ->
         let v = r.Fleet.wr_value in
         [
           Table.cell_int r.Fleet.wr_world;
           Table.cell_int v.Workload.fw_calls;
           Table.cell_int v.Workload.fw_requests;
           Printf.sprintf "%.3f" r.Fleet.wr_elapsed;
         ])
       (Fleet.results par));
  Printf.printf
    "serial %.3fs, parallel %.3fs -> speedup %.2fx; per-world results %s\n"
    (Fleet.elapsed serial) (Fleet.elapsed par) speedup
    (if div = [] then "bit-identical to the serial run"
     else "DIVERGED: " ^ String.concat ", "
            (List.map (fun (w, d) -> Printf.sprintf "world %d (%s)" w d) div));
  let outcome =
    {
      par_domains = domains;
      par_worlds = worlds;
      par_serial_sec = Fleet.elapsed serial;
      par_parallel_sec = Fleet.elapsed par;
      par_speedup = speedup;
      par_deterministic = div = [];
      par_serial_requests = sum_requests serial;
      par_merged_requests = merged_req;
    }
  in
  (* Emit under the merged sink so the artifact's counter blocks carry
     the fleet totals (the main sink saw none of the worlds' events);
     the empty [since] makes the delta the full merged footprint. *)
  Obs.Sink.with_sink merged (fun () ->
      let open Obs.Json in
      let h_req =
        match Obs.Sink.find_histogram merged "fleet.request_usec" with
        | Some h -> h
        | None -> Obs.Histogram.create ()
      in
      emit ~json_dir ~name:"parallel" ~since:[]
        ~histogram:("fleet_request_usec", h_req)
        [
          ("domains", Int domains);
          ("worlds", Int worlds);
          ("cores", Int (Domain.recommended_domain_count ()));
          ( "engine",
            String (Bexec.engine_to_string (Bexec.get_default_engine ())) );
          (* fleet-total simulated instructions over parallel wall
             time: how fast the fleet simulates, not how fast the
             simulated machines are *)
          ( "simulated_mips",
            Float
              (let instrs =
                 Obs.Sink.counter_value merged "machine.instructions"
               in
               if outcome.par_parallel_sec > 0. then
                 float_of_int instrs /. outcome.par_parallel_sec /. 1e6
               else 0.) );
          ( "serial",
            Obj
              [
                ("elapsed_sec", Float outcome.par_serial_sec);
                ("requests", Int outcome.par_serial_requests);
              ] );
          ( "parallel",
            Obj
              [
                ("elapsed_sec", Float outcome.par_parallel_sec);
                ("requests", Int (sum_requests par));
              ] );
          ("speedup", Float speedup);
          ("deterministic", Bool outcome.par_deterministic);
          ("merged_request_count", Int merged_req);
          ( "per_world",
            List
              (List.map
                 (fun r ->
                   let v = r.Fleet.wr_value in
                   Obj
                     [
                       ("world", Int r.Fleet.wr_world);
                       ("calls", Int v.Workload.fw_calls);
                       ("requests", Int v.Workload.fw_requests);
                       ("elapsed_sec", Float r.Fleet.wr_elapsed);
                     ])
                 (Fleet.results par)) );
        ]);
  outcome

(* --- Basic-block engine speedup --------------------------------------- *)

(* Same workload, both execution engines: the architectural totals
   (cycle count, instruction count) must be identical — the block
   engine is an implementation detail, not a model change — and the
   wall-clock ratio is the engine's speedup.  Simulated MIPS is
   retired simulated instructions per wall-clock second. *)

type engine_sample = {
  es_sec : float;
  es_cycles : int;
  es_instrs : int;
}

let mips s = float_of_int s.es_instrs /. max 1e-9 s.es_sec /. 1e6

type fastpath_row = {
  fp_workload : string;
  fp_interp : engine_sample;
  fp_blocks : engine_sample;
}

let fp_speedup r = r.fp_interp.es_sec /. max 1e-9 r.fp_blocks.es_sec

let fp_identical r =
  r.fp_interp.es_cycles = r.fp_blocks.es_cycles
  && r.fp_interp.es_instrs = r.fp_blocks.es_instrs

(* Block-cache footprint of one run, read off the bcache.* counters: a
   lookup is a table hit, a miss or a chained transfer (a hit that
   skipped the table). *)
type cache_row = {
  cr_blocks : int;
  cr_lookups : int;
  cr_hits : int;
  cr_invalidations : int;
}

let c_bc_hit = Obs.Counters.counter "bcache.hit"

let c_bc_miss = Obs.Counters.counter "bcache.miss"

let c_bc_chain = Obs.Counters.counter "bcache.chain"

let c_bc_invalidate = Obs.Counters.counter "bcache.invalidate"

(* This sink's (lookups, hits, invalidations) so far. *)
let cache_counts () =
  let v = Obs.Counters.value in
  let hits = v c_bc_hit + v c_bc_chain in
  (hits + v c_bc_miss, hits, v c_bc_invalidate)

type fastpath_outcome = {
  fp_rows : fastpath_row list;
  fp_machine : fastpath_row;
  fp_protected : fastpath_row; (* the compute-heavy protected-call sweep *)
  fp_cache : cache_row;
}

let with_engine engine f =
  let saved = Bexec.get_default_engine () in
  Bexec.set_default_engine engine;
  Fun.protect ~finally:(fun () -> Bexec.set_default_engine saved) f

(* Hookless flat machine running a register-only loop: the fast-path
   fraction is ~100%, so this row is the engine's best case and the
   one the smoke test holds to a speedup floor. *)
let fastpath_machine_sample engine ~iters =
  let module P = X86.Privilege in
  let module Sel = X86.Selector in
  let module Desc = X86.Descriptor in
  let module DT = X86.Desc_table in
  let module Seg = X86.Segmentation in
  let lookups0, hits0, invalidations0 = cache_counts () in
  let phys = X86.Phys_mem.create () in
  let dir = X86.Paging.create () in
  for vpn = 0 to 31 do
    let pfn = X86.Phys_mem.alloc_frame phys in
    X86.Paging.map dir ~vpn ~pfn ~writable:true ~user:true
  done;
  let gdt = DT.gdt () in
  DT.set gdt 1 (Desc.code ~base:0 ~limit:0x1F_FFFF ~dpl:P.R0 ());
  DT.set gdt 2 (Desc.data ~base:0 ~limit:0x1F_FFFF ~dpl:P.R0 ());
  let kcs = Sel.make ~rpl:P.R0 1 in
  let kds = Sel.make ~rpl:P.R0 2 in
  let idt = DT.create ~capacity:16 ~name:"idt" ~is_gdt:false () in
  let tss = Tss.create ~dir () in
  Tss.set_stack tss P.R0 { Tss.stack_selector = kds; stack_pointer = 0x8000 };
  let mmu = X86.Mmu.create phys ~dir in
  let code = Code_mem.create () in
  let view = DT.view gdt in
  let cpu = Cpu.create ~mmu ~code ~view ~idt ~tss () in
  let bx = Bexec.attach cpu in
  Cpu.set_engine cpu engine;
  let r x = Operand.Reg x in
  let org = 0x1000 in
  let lea =
    {
      Operand.base = Some Reg.EBX;
      index = Some (Reg.ECX, 4);
      disp = 12;
      seg_override = None;
    }
  in
  let asm =
    Asm.assemble ~org
      [
        Asm.I (Instr.Mov (r Reg.ECX, Operand.Imm iters));
        Asm.I (Instr.Mov (r Reg.EAX, Operand.Imm 0));
        Asm.I (Instr.Mov (r Reg.EBX, Operand.Imm 0x9E37_79B9));
        Asm.L "loop";
        Asm.I (Instr.Alu (Instr.Add, r Reg.EAX, r Reg.EBX));
        Asm.I (Instr.Alu (Instr.Xor, r Reg.EBX, r Reg.EAX));
        Asm.I (Instr.Shl (r Reg.EAX, 1));
        Asm.I (Instr.Lea (Reg.ESI, lea));
        Asm.I (Instr.Imul (Reg.EDX, r Reg.ESI));
        Asm.I (Instr.Inc (r Reg.EDI));
        Asm.I (Instr.Dec (r Reg.ECX));
        Asm.I (Instr.Jcc (Instr.Ne, Instr.Label "loop"));
        Asm.I Instr.Hlt;
      ]
  in
  Code_mem.store_program code ~addr:org asm.Asm.instrs;
  Cpu.force_seg cpu Reg.CS (Seg.load_code view ~new_cpl:P.R0 kcs);
  Cpu.force_seg cpu Reg.SS (Seg.load_stack view ~cpl:P.R0 kds);
  Cpu.force_seg cpu Reg.DS (Seg.load_data view ~cpl:P.R0 kds);
  Cpu.force_seg cpu Reg.ES (Seg.load_data view ~cpl:P.R0 kds);
  Cpu.set_eip cpu org;
  Cpu.set_reg cpu Reg.ESP 0x8000;
  Cpu.set_halted cpu false;
  let t0 = Sys.time () in
  (match Cpu.run cpu with
  | Cpu.Halted -> ()
  | Cpu.Max_instructions | Cpu.Fault_abort _ ->
      failwith "fastpath: machine loop did not halt");
  let es_sec = Sys.time () -. t0 in
  let lookups, hits, invalidations = cache_counts () in
  ( { es_sec; es_cycles = Cpu.cycles cpu; es_instrs = Cpu.instructions cpu },
    {
      cr_blocks = Bexec.cached_blocks bx;
      cr_lookups = lookups - lookups0;
      cr_hits = hits - hits0;
      cr_invalidations = invalidations - invalidations0;
    } )

(* The checksum rounds of the compute-heavy protected-call sweeps:
   ~32k simulated instructions per call, so instruction dispatch (not
   the crossing or the kernel's OCaml bookkeeping) dominates. *)
let mix_rounds = 4096

(* Warm protected calls into [image]'s [export] through the full
   stub/gate path.  The null function measures the crossing itself
   (kernel entries, far transfers and stub code run outside blocks,
   so the engine cannot help); the mix kernel measures a
   compute-bound extension where it can. *)
let fastpath_calls_sample ?hist engine ~image ~export ~calls =
  with_engine engine @@ fun () ->
  let _w, app = boot_app () in
  let ext = Pbackend.load app image in
  let prepare = Pbackend.resolve app ext export in
  (match Pbackend.call app ~prepare ~arg:1 (* warm TLB and pages *) with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "fastpath warm call: %a" Pbackend.pp_call_error e);
  let cpu = Kernel.cpu (Pbackend.kernel app) in
  let c0 = Cpu.cycles cpu and i0 = Cpu.instructions cpu in
  let t0 = Sys.time () in
  for _ = 1 to calls do
    let before = Cpu.cycles cpu in
    (match Pbackend.call app ~prepare ~arg:1 with
    | Ok _ -> ()
    | Error e -> Fmt.failwith "fastpath call: %a" Pbackend.pp_call_error e);
    match hist with
    | Some h -> Obs.Histogram.observe h (Cpu.cycles cpu - before)
    | None -> ()
  done;
  { es_sec = Sys.time () -. t0; es_cycles = Cpu.cycles cpu - c0;
    es_instrs = Cpu.instructions cpu - i0 }

(* Web-server sweep: measure the per-request protected CGI call — a
   handler that checksums the request, the mix kernel — by simulation
   under the engine, then feed the measured cost into the DES server
   model.  Identical cycle totals imply identical modelled
   throughput; the wall-clock win is in producing the measurement. *)
let fastpath_server_sample engine ~sim_calls ~requests =
  with_engine engine @@ fun () ->
  let _w, app = boot_app () in
  let ext = Pbackend.load app (Ulib.mix_image ~rounds:mix_rounds) in
  let prepare = Pbackend.resolve app ext "mix" in
  (match Pbackend.call app ~prepare ~arg:1 with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "fastpath mix: %a" Pbackend.pp_call_error e);
  let cpu = Kernel.cpu (Pbackend.kernel app) in
  let c0 = Cpu.cycles cpu and i0 = Cpu.instructions cpu in
  let t0 = Sys.time () in
  for _ = 1 to sim_calls do
    ignore (Pbackend.call app ~prepare ~arg:1)
  done;
  let sec = Sys.time () -. t0 in
  let d_cycles = Cpu.cycles cpu - c0 in
  let per_call = d_cycles / sim_calls in
  let stats =
    Server.run ~concurrency:16 ~total:requests
      ~invocation:Cgi_model.Libcgi_protected ~bytes:2048
      ~protected_call_usec:(usec_of_cycles per_call) ()
  in
  ( { es_sec = sec; es_cycles = d_cycles;
      es_instrs = Cpu.instructions cpu - i0 },
    stats.Server.throughput_rps )

let fastpath ?(json_dir = ".") ?(machine_iters = 200_000) ?(calls = 300)
    ?(sim_calls = 100) ?(requests = 20_000) () =
  let since = Obs.Counters.snapshot () in
  (* Machine row, plus the cache footprint of its blocks run. *)
  let m_interp, _ = fastpath_machine_sample Cpu.Interp ~iters:machine_iters in
  let m_blocks, cache = fastpath_machine_sample Cpu.Blocks ~iters:machine_iters in
  let machine = { fp_workload = "machine-alu"; fp_interp = m_interp;
                  fp_blocks = m_blocks } in
  let mix = Ulib.mix_image ~rounds:mix_rounds in
  let h_call = Obs.Histogram.create () in
  let pc_interp =
    fastpath_calls_sample Cpu.Interp ~image:mix ~export:"mix" ~calls
  in
  let pc_blocks =
    fastpath_calls_sample ~hist:h_call Cpu.Blocks ~image:mix ~export:"mix"
      ~calls
  in
  let pc = { fp_workload = "protected-call"; fp_interp = pc_interp;
             fp_blocks = pc_blocks } in
  let null_calls = calls in
  let nc_interp =
    fastpath_calls_sample Cpu.Interp ~image:Ulib.null_image ~export:"null_fn"
      ~calls:null_calls
  in
  let nc_blocks =
    fastpath_calls_sample Cpu.Blocks ~image:Ulib.null_image ~export:"null_fn"
      ~calls:null_calls
  in
  let nc = { fp_workload = "protected-null-call"; fp_interp = nc_interp;
             fp_blocks = nc_blocks } in
  let ws_interp, rps_interp =
    fastpath_server_sample Cpu.Interp ~sim_calls ~requests
  in
  let ws_blocks, rps_blocks =
    fastpath_server_sample Cpu.Blocks ~sim_calls ~requests
  in
  let ws = { fp_workload = "webserver-cgi"; fp_interp = ws_interp;
             fp_blocks = ws_blocks } in
  let rows = [ machine; pc; nc; ws ] in
  Printf.printf
    "%-20s %12s %12s %9s %10s %10s %s\n" "fastpath" "interp(s)" "blocks(s)"
    "speedup" "interpMIPS" "blocksMIPS" "identical";
  List.iter
    (fun r ->
      Printf.printf "%-20s %12.4f %12.4f %8.2fx %10.2f %10.2f %s\n"
        r.fp_workload r.fp_interp.es_sec r.fp_blocks.es_sec (fp_speedup r)
        (mips r.fp_interp) (mips r.fp_blocks)
        (if fp_identical r then "yes" else "NO"))
    rows;
  if rps_interp <> rps_blocks then
    Printf.printf
      "webserver throughput DIVERGED: interp %.1f rps, blocks %.1f rps\n"
      rps_interp rps_blocks;
  let open Obs.Json in
  let sample_obj s =
    Obj
      [
        ("elapsed_sec", Float s.es_sec);
        ("cycles", Int s.es_cycles);
        ("instructions", Int s.es_instrs);
        ("simulated_mips", Float (mips s));
      ]
  in
  emit ~json_dir ~name:"fastpath" ~since
    ~histogram:("protected_call_cycles", h_call)
    [
      ( "rows",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("workload", String r.fp_workload);
                   ("interp", sample_obj r.fp_interp);
                   ("blocks", sample_obj r.fp_blocks);
                   ("speedup", Float (fp_speedup r));
                   ("identical", Bool (fp_identical r));
                 ])
             rows) );
      ("webserver_rps_interp", Float rps_interp);
      ("webserver_rps_blocks", Float rps_blocks);
      ("webserver_rps_identical", Bool (rps_interp = rps_blocks));
      ( "cache",
        Obj
          [
            ("blocks", Int cache.cr_blocks);
            ("lookups", Int cache.cr_lookups);
            ("hits", Int cache.cr_hits);
            ("invalidations", Int cache.cr_invalidations);
          ] );
    ];
  { fp_rows = rows; fp_machine = machine; fp_protected = pc; fp_cache = cache }

(* --- Timeline: sampled time series, serial vs parallel ----------------- *)

(* Per-boundary bcache hit ratio from a sampled series: align the hit
   and miss delta points by timestamp, keep boundaries with lookups. *)
let bcache_ratios ts =
  let deltas name =
    List.filter_map
      (fun p ->
        match p.Obs.Timeseries.p_v with
        | Obs.Timeseries.Counter { delta; _ } ->
            Some (p.Obs.Timeseries.p_t, delta)
        | _ -> None)
      (Obs.Timeseries.points ts name)
  in
  let hits = deltas "bcache.hit" and misses = deltas "bcache.miss" in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (t, d) -> Hashtbl.replace tbl t (d, 0)) hits;
  List.iter
    (fun (t, d) ->
      let h = match Hashtbl.find_opt tbl t with Some (h, _) -> h | None -> 0 in
      Hashtbl.replace tbl t (h, d))
    misses;
  List.map fst hits @ List.map fst misses
  |> List.sort_uniq compare
  |> List.filter_map (fun t ->
         let h, m = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl t) in
         if h + m = 0 then None
         else Some (t, h, m, float_of_int h /. float_of_int (h + m)))

type timeline_outcome = {
  tl_domains : int;
  tl_worlds : int;
  tl_deterministic : bool;
      (* per-world sampled series bit-identical, serial vs parallel *)
  tl_samples : int; (* points across all merged series *)
  tl_first_ratio : float; (* bcache hit ratio of the first busy interval *)
  tl_steady_ratio : float; (* aggregate ratio of every later interval *)
}

let tl_warmed o = o.tl_first_ratio < o.tl_steady_ratio

(* Sampled-series bench: run the shared fleet world for a fixed batch
   count serially and sharded over domains, each world under its own
   collector, and compare the per-world time series point-for-point.
   The artifact carries the merged series plus the bcache warm-up
   headline: the first busy interval absorbs every cold block
   translation (boot, the warm-up call and the first batch), so its
   hit ratio must sit strictly below the steady state where the cache
   is warm. *)
let timeline ?(json_dir = ".") ?(domains = 2) ?worlds ?(batches = 8)
    ?(calls = 48) ?(requests = 160) ?(sample_ms = 10) () =
  let worlds = match worlds with Some w -> w | None -> max domains 2 in
  let every = max 1 sample_ms * Cycles.mhz * 1000 in
  (* the warm-up headline needs bcache traffic, so pin the block engine
     even when PALLADIUM_ENGINE overrides the default *)
  with_engine Cpu.Blocks @@ fun () ->
  let fresh () = Array.init worlds (fun _ -> Obs.Collector.create ~every ()) in
  let cs_serial = fresh () and cs_par = fresh () in
  let run domains collectors =
    Fleet.run ~domains ~worlds
      (Workload.fleet_world ~collectors ~until:(fun b -> b >= batches) ~calls
         ~requests)
  in
  let serial = run 1 cs_serial and par = run domains cs_par in
  let series_json cs =
    Array.to_list cs
    |> List.map (fun c -> Obs.Timeseries.to_json (Obs.Collector.series c))
  in
  let deterministic =
    Fleet.divergences serial par = []
    && series_json cs_serial = series_json cs_par
  in
  let merged_ts = Obs.Collector.merged_series (Array.to_list cs_par) in
  let samples =
    List.fold_left
      (fun acc n -> acc + Obs.Timeseries.length merged_ts n)
      0
      (Obs.Timeseries.names merged_ts)
  in
  let ratios = bcache_ratios merged_ts in
  let first_ratio, steady_ratio =
    match ratios with
    | [] -> (0., 0.)
    | (_, _, _, r0) :: rest ->
        let h, m =
          List.fold_left (fun (h, m) (_, h', m', _) -> (h + h', m + m')) (0, 0)
            rest
        in
        (r0, if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m))
  in
  Printf.printf
    "timeline: %d worlds x %d batches, sampled every %d simulated ms (%d \
     cycles)\n\
     sampled series %s; %d points across %d merged series, %d busy bcache \
     intervals\n\
     bcache hit ratio: first interval %.4f -> steady state %.4f (%s)\n"
    worlds batches sample_ms every
    (if deterministic then "bit-identical to the serial run"
     else "DIVERGED from the serial run")
    samples
    (List.length (Obs.Timeseries.names merged_ts))
    (List.length ratios) first_ratio steady_ratio
    (if first_ratio < steady_ratio then "cache warm-up visible"
     else "NO warm-up visible");
  let merged = Fleet.merged par in
  Obs.Sink.with_sink merged (fun () ->
      let open Obs.Json in
      let h_call =
        match Obs.Sink.find_histogram merged "fleet.call_cycles" with
        | Some h -> h
        | None -> Obs.Histogram.create ()
      in
      emit ~json_dir ~name:"timeline" ~since:[]
        ~histogram:("fleet_call_cycles", h_call)
        [
          ("domains", Int domains);
          ("worlds", Int worlds);
          ("batches", Int batches);
          ("calls_per_batch", Int calls);
          ("requests_per_batch", Int requests);
          ("sample_every_ms", Int sample_ms);
          ("sample_every_cycles", Int every);
          ("deterministic", Bool deterministic);
          ("samples", Int samples);
          ( "warmup",
            Obj
              [
                ("first_hit_ratio", Float first_ratio);
                ("steady_hit_ratio", Float steady_ratio);
                ("warmed", Bool (first_ratio < steady_ratio));
                ("busy_intervals", Int (List.length ratios));
              ] );
          ("series", Obs.Timeseries.to_json merged_ts);
        ]);
  {
    tl_domains = domains;
    tl_worlds = worlds;
    tl_deterministic = deterministic;
    tl_samples = samples;
    tl_first_ratio = first_ratio;
    tl_steady_ratio = steady_ratio;
  }

(* --- Driver ------------------------------------------------------------ *)

let subcommands =
  [
    "table1"; "table2"; "table3"; "figure7"; "micro"; "ipc"; "ablation"; "sfi";
    "backends"; "audit"; "fastpath"; "parallel"; "timeline"; "wcet";
  ]

(* Run the requested subset (everything when [args] is empty). *)
let run_main args =
  let want name = args = [] || List.mem name args in
  let palladium_cycles = ref 144 in
  if want "table1" then palladium_cycles := table1 ();
  if want "table2" then table2 ();
  if want "table3" then
    table3 ~protected_call_usec:(usec_of_cycles !palladium_cycles) ();
  if want "figure7" then figure7 ();
  if want "micro" then micro ();
  if want "ipc" then ipc_cmp ~palladium_cycles:!palladium_cycles ();
  if want "ablation" then ablation ();
  if want "sfi" then sfi ();
  if want "backends" then backends ();
  if want "audit" then audit ();
  if want "fastpath" then ignore (fastpath ());
  (* parallel spawns domains, so it only runs when asked for by name;
     `--domains N` / `--worlds N` tune the fleet. *)
  let rec flag name = function
    | [] -> None
    | f :: v :: _ when f = name -> int_of_string_opt v
    | _ :: rest -> flag name rest
  in
  if want "soundness" then
    ignore
      (soundness
         ?specimens:(flag "--specimens" args)
         ?seed:(flag "--seed" args)
         ());
  if want "wcet" then ignore (wcet ?packets:(flag "--packets" args) ());
  if List.mem "parallel" args then
    ignore
      (parallel
         ?domains:(flag "--domains" args)
         ?worlds:(flag "--worlds" args)
         ());
  (* timeline also spawns domains: named-only, same flags *)
  if List.mem "timeline" args then
    ignore
      (timeline
         ?domains:(flag "--domains" args)
         ?worlds:(flag "--worlds" args)
         ())
