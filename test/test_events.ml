(* Per-operation event counts, pinned.  Each simulator event (TLB hit
   or miss, page walk, physical byte access, descriptor load, gate
   transit, block-cache lookup, ...) is counted once, in the world's
   sink.  These tests record the full counter delta of one warm
   operation and compare it with a literal: an event lost or counted
   twice on the way changes the delta.

   The deltas are taken under the block engine; the interpreter must
   produce the same delta without the engine's [bcache.*]
   meta-counters.  The backend of each world is fixed at boot, so
   neither PALLADIUM_ENGINE nor PALLADIUM_BACKEND moves the figures. *)

let delta_of f =
  let since = Obs.Counters.snapshot () in
  f ();
  Obs.Counters.delta ~since

let with_engine e f =
  let saved = Bexec.get_default_engine () in
  Bexec.set_default_engine e;
  Fun.protect ~finally:(fun () -> Bexec.set_default_engine saved) f

(* The delta of one warm protected null call. *)
let null_call backend () =
  let w = Palladium.boot ~backend () in
  let call = Workload.warm_null_call (Palladium.create_backend_app w ~name:"pin") in
  let d =
    delta_of (fun () ->
        match call () with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "null call: %a" Pbackend.pp_call_error e)
  in
  Palladium.teardown w;
  d

(* The delta of one matching packet through the compiled 4-term filter
   in an SPL 1 kernel extension, after one warm-up packet. *)
let filter_packet () =
  let w = Palladium.boot ~backend:Pbackend.Segmentation () in
  let task = Kernel.create_task (Palladium.kernel w) ~name:"pin" in
  let nf =
    Native_compile.load (Palladium.create_kernel_segment w)
      (Filter_expr.canonical 4)
  in
  let packet = Packet.to_bytes (Pkt_gen.matching_packet ()) in
  let run () =
    match Native_compile.run nf task ~packet with
    | Ok (1, _) -> ()
    | Ok (v, _) -> Alcotest.failf "filter verdict %d, expected 1" v
    | Error e -> Alcotest.failf "filter: %a" Kernel_ext.pp_invoke_error e
  in
  run ();
  let d = delta_of run in
  Palladium.teardown w;
  d

let is_engine_meta (name, _) =
  String.length name >= 7 && String.sub name 0 7 = "bcache."

let pin op expected () =
  let counts = Alcotest.(list (pair string int)) in
  Alcotest.check counts "blocks delta" expected (with_engine Cpu.Blocks op);
  Alcotest.check counts "interp delta"
    (List.filter (fun c -> not (is_engine_meta c)) expected)
    (with_engine Cpu.Interp op)

let seg_call =
  [
    ("bcache.hit", 10);
    ("core.protected_calls", 1);
    ("machine.crossings.lower", 1);
    ("machine.crossings.raise", 1);
    ("machine.gate_transits", 1);
    ("machine.instructions", 29);
    ("x86.phys.reads", 44);
    ("x86.phys.writes", 64);
    ("x86.seg.descriptor_loads", 8);
    ("x86.tlb.hits", 56);
  ]

let mpk_call =
  [
    ("bcache.hit", 6);
    ("core.protected_calls", 1);
    ("machine.instructions", 26);
    ("x86.phys.reads", 28);
    ("x86.phys.writes", 32);
    ("x86.seg.descriptor_loads", 4);
    ("x86.tlb.hits", 41);
  ]

let packet =
  [
    ("bcache.hit", 19);
    ("machine.crossings.lower", 1);
    ("machine.crossings.raise", 1);
    ("machine.gate_transits", 1);
    ("machine.instructions", 60);
    ("machine.sreg_loads", 2);
    ("x86.mmu.page_walks", 2);
    ("x86.phys.reads", 54);
    ("x86.phys.writes", 120);
    ("x86.seg.descriptor_loads", 10);
    ("x86.tlb.hits", 94);
    ("x86.tlb.misses", 2);
  ]

let () =
  Alcotest.run "events"
    [
      ( "per-operation",
        [
          Alcotest.test_case "warm seg null call" `Quick
            (pin (null_call Pbackend.Segmentation) seg_call);
          Alcotest.test_case "warm mpk null call" `Quick
            (pin (null_call Pbackend.Mpk) mpk_call);
          Alcotest.test_case "compiled 4-term filter packet" `Quick
            (pin filter_packet packet);
        ] );
    ]
