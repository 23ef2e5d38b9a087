(* Shared auditing scenarios: clean worlds for the auditor to bless
   and an injected-misconfiguration catalogue it must reject.

   Each misconfiguration violates exactly ONE invariant (or plants a
   rogue gate the reachability cut must find) — the scoping rules in
   lib/audit/invariant.ml exist precisely so these stay
   single-finding.  test/test_audit.ml asserts every entry yields at
   least one finding citing the intended id and nothing else. *)

module Sel = X86.Selector
module Desc = X86.Descriptor
module DT = X86.Desc_table
module P = X86.Privilege
module L = X86.Layout

type world = {
  w : Palladium.world;
  kernel : Kernel.t;
  app : Pbackend.app;
  ext : Pbackend.ext;
  kseg : Kernel_ext.t;
}

(* A full world: promoted application with a loaded extension, an
   application service, a guard window, and a kernel extension segment
   with an exposed kernel service and a loaded module.  This exercises
   every descriptor species the catalogue knows about. *)
let build () =
  let w = Palladium.boot () in
  let kernel = Palladium.kernel w in
  let app = Palladium.create_app w ~name:"audited" in
  ignore (Guard.create app ~size:L.page_size);
  let ext = Pbackend.load app Ulib.null_image in
  ignore (Pbackend.resolve app ext "null_fn");
  ignore (User_ext.add_service app ~name:"svc" ~handler:(fun ~args_base:_ -> 0));
  let kseg = Palladium.create_kernel_segment w in
  ignore
    (Kernel_ext.expose_service kseg ~name:"ksvc"
       ~handler:(fun ~args_linear:_ -> 0));
  ignore (Kernel_ext.insmod kseg Ulib.null_image);
  { w; kernel; app; ext; kseg }

let clean_scenarios : (string * (unit -> Kernel.t)) list =
  [
    ("boot", fun () -> Palladium.kernel (Palladium.boot ()));
    ( "app",
      fun () ->
        let w = Palladium.boot () in
        let app = Palladium.create_app w ~name:"audited" in
        ignore (Guard.create app ~size:L.page_size);
        ignore
          (User_ext.add_service app ~name:"svc" ~handler:(fun ~args_base:_ -> 0));
        ignore (Pbackend.load app Ulib.null_image);
        Palladium.kernel w );
    ( "kernelext",
      fun () ->
        let w = Palladium.boot () in
        let kseg = Palladium.create_kernel_segment w in
        ignore
          (Kernel_ext.expose_service kseg ~name:"ksvc"
             ~handler:(fun ~args_linear:_ -> 0));
        ignore (Kernel_ext.insmod kseg Ulib.null_image);
        Palladium.kernel w );
    ("full", fun () -> (build ()).kernel);
  ]

(* Pure audit of a world: catalogue + reachability, no policy, no
   generation cache — misconfigurations below may mutate state in ways
   the generation fingerprint cannot see. *)
let audit_world world = Audit.Engine.run (Paudit.capture world.kernel)

(* --- helpers for the misconfigurations ----------------------------- *)

let live_seg world =
  match
    List.find_opt
      (fun (rs : Audit.Snapshot.registered_segment) ->
        not rs.Audit.Snapshot.rs_dead)
      (Paudit.segments world.kernel)
  with
  | Some rs -> rs
  | None -> failwith "audit scenario: no live kernel-extension segment"

let gdt_desc world slot =
  match DT.get (Kernel.gdt world.kernel) slot with
  | Some d -> d
  | None -> Fmt.failwith "audit scenario: GDT slot %d empty" slot

let first_gate world =
  match (live_seg world).Audit.Snapshot.rs_gates with
  | (slot, entry) :: _ -> (slot, entry)
  | [] -> failwith "audit scenario: extension segment has no gates"

let task world = Pbackend.task world.app

let task_dir world = Address_space.directory (task world).Task.asp

let sel_exn what = function
  | Some sel -> sel
  | None -> Fmt.failwith "audit scenario: task has no %s" what

(* The task-private data page holding the saved SP/BP slots: PPL 0
   after promotion, so flipping its U/S bit diverges PTE from area. *)
let private_page_vpn world =
  let areas = Address_space.areas (task world).Task.asp in
  match
    List.find_opt (fun a -> a.Vm_area.label = "palladium.data") areas
  with
  | Some a -> a.Vm_area.va_start / L.page_size
  | None -> failwith "audit scenario: no palladium.data area"

(* A user VPN no VM area covers: probe the page after each area's end
   (plus the second page of the address space) for a gap. *)
let uncovered_user_vpn world =
  let areas = Address_space.areas (task world).Task.asp in
  let covered linear =
    List.exists
      (fun a -> linear >= a.Vm_area.va_start && linear < a.Vm_area.va_end)
      areas
  in
  let candidates =
    L.page_size :: List.map (fun a -> a.Vm_area.va_end) areas
  in
  match
    List.find_opt
      (fun l -> l + L.page_size <= L.kernel_base && not (covered l))
      candidates
  with
  | Some linear -> linear / L.page_size
  | None -> failwith "audit scenario: no uncovered user page"

type misconfig = {
  mc_name : string;
  mc_id : string;
  mc_doc : string;
  mc_apply : world -> unit;
}

let mc name id doc apply =
  { mc_name = name; mc_id = id; mc_doc = doc; mc_apply = apply }

let misconfigs : misconfig list =
  [
    mc "null-slot-occupied" "INV-01"
      "install a DPL 0 data descriptor in GDT slot 0"
      (fun world ->
        DT.unsafe_set (Kernel.gdt world.kernel) 0
          (Desc.data ~base:0 ~limit:0xfff ~dpl:P.R0 ()));
    mc "kernel-code-widened" "INV-02"
      "widen the kernel code segment limit by one page"
      (fun world ->
        DT.set (Kernel.gdt world.kernel) L.gdt_kernel_code
          (Desc.code ~base:L.kernel_base
             ~limit:(L.kernel_limit + L.page_size)
             ~dpl:P.R0 ()));
    mc "user-data-widened" "INV-03"
      "widen the flat user data segment past 3 GB"
      (fun world ->
        DT.set (Kernel.gdt world.kernel) L.gdt_user_data
          (Desc.data ~base:0 ~limit:(L.user_limit + L.page_size) ~dpl:P.R3 ()));
    mc "ext-segment-escape" "INV-04"
      "rebase the extension segment's cs and ds onto the kernel core"
      (fun world ->
        let rs = live_seg world in
        let gdt = Kernel.gdt world.kernel in
        let limit = rs.Audit.Snapshot.rs_size - 1 in
        DT.set gdt rs.Audit.Snapshot.rs_cs
          (Desc.code ~base:L.kernel_base ~limit ~dpl:P.R1 ());
        DT.set gdt rs.Audit.Snapshot.rs_ds
          (Desc.data ~base:L.kernel_base ~limit ~dpl:P.R1 ()));
    mc "ext-ds-widened" "INV-05"
      "widen the extension data descriptor one page past its code alias"
      (fun world ->
        let rs = live_seg world in
        let gdt = Kernel.gdt world.kernel in
        let d = gdt_desc world rs.Audit.Snapshot.rs_ds in
        DT.set gdt rs.Audit.Snapshot.rs_ds
          (Desc.data ~base:d.Desc.base
             ~limit:(d.Desc.limit + L.page_size)
             ~dpl:P.R1 ()));
    mc "ext-cs-conforming" "INV-06"
      "make the extension code segment conforming"
      (fun world ->
        let rs = live_seg world in
        let gdt = Kernel.gdt world.kernel in
        let d = gdt_desc world rs.Audit.Snapshot.rs_cs in
        DT.set gdt rs.Audit.Snapshot.rs_cs
          (Desc.code ~conforming:true ~base:d.Desc.base ~limit:d.Desc.limit
             ~dpl:P.R1 ()));
    mc "gdt-dpl2-code" "INV-07" "plant a flat DPL 2 code segment in the GDT"
      (fun world ->
        ignore
          (DT.alloc (Kernel.gdt world.kernel)
             (Desc.code ~base:0 ~limit:L.user_limit ~dpl:P.R2 ())));
    mc "app-cs-shrunk" "INV-08"
      "shrink the promoted app's DPL 2 code segment below 3 GB"
      (fun world ->
        let tk = task world in
        let sel = sel_exn "app_cs" tk.Task.app_cs in
        DT.set tk.Task.ldt (Sel.index sel)
          (Desc.code ~base:0 ~limit:(L.user_limit - L.page_size) ~dpl:P.R2 ()));
    mc "ldt-slot0-occupied" "INV-09"
      "install a descriptor in the reserved LDT slot 0"
      (fun world ->
        DT.set (task world).Task.ldt 0
          (Desc.data ~base:0 ~limit:L.user_limit ~dpl:P.R3 ()));
    mc "appgate-retargeted" "INV-10"
      "move an AppCallGate's entry 4 bytes off its registered stub"
      (fun world ->
        let tk = task world in
        match tk.Task.gate_entries with
        | (slot, entry) :: _ ->
            DT.set tk.Task.ldt slot
              (Desc.call_gate ~dpl:P.R3
                 ~target:(sel_exn "app_cs" tk.Task.app_cs)
                 ~entry:(entry + 4) ())
        | [] -> failwith "audit scenario: no AppCallGate registered");
    mc "ksvc-gate-to-data" "INV-11"
      "point a kernel-service gate at the kernel data segment"
      (fun world ->
        let slot, entry = first_gate world in
        DT.set (Kernel.gdt world.kernel) slot
          (Desc.call_gate ~dpl:P.R1
             ~target:(Kernel.kernel_data_selector world.kernel)
             ~entry ()));
    mc "tss-sp2-selector" "INV-12"
      "swap the ring-2 inner stack selector for the DPL 3 user data segment"
      (fun world ->
        let tk = task world in
        match Tss.stack_slot tk.Task.tss P.R2 with
        | Some s ->
            Tss.set_stack tk.Task.tss P.R2
              {
                s with
                Tss.stack_selector = Kernel.user_data_selector world.kernel;
              }
        | None -> failwith "audit scenario: task has no ring-2 stack");
    mc "tss-sp0-cleared" "INV-13" "clear the task's ring-0 stack slot"
      (fun world -> Tss.clear_stack (task world).Task.tss P.R0);
    mc "idt-call-gate" "INV-14" "install a call gate in the IDT"
      (fun world ->
        DT.set (Kernel.idt world.kernel) 0x21
          (Desc.call_gate ~dpl:P.R0
             ~target:(Kernel.kernel_code_selector world.kernel)
             ~entry:0 ()));
    mc "syscall-vector-skewed" "INV-15"
      "move the int-0x80 handler 8 bytes off the registered syscall stub"
      (fun world ->
        let idt = Kernel.idt world.kernel in
        match DT.get idt 0x80 with
        | Some { Desc.kind = Desc.Interrupt_gate g; _ } ->
            DT.set idt 0x80
              (Desc.interrupt_gate ~dpl:P.R3 ~target:g.Desc.target
                 ~entry:(g.Desc.entry + 8) ())
        | _ -> failwith "audit scenario: vector 0x80 is not an interrupt gate");
    mc "ksvc-entry-skewed" "INV-16"
      "move a kernel-service gate 8 bytes off its registered stub"
      (fun world ->
        let slot, entry = first_gate world in
        DT.set (Kernel.gdt world.kernel) slot
          (Desc.call_gate ~dpl:P.R1
             ~target:(Kernel.kernel_code_selector world.kernel)
             ~entry:(entry + 8) ()));
    mc "private-page-exposed" "INV-17"
      "flip the U/S bit of a promoted app's supervisor private page"
      (fun world ->
        let vpn = private_page_vpn world in
        if not (X86.Paging.set_user (task_dir world) ~vpn true) then
          failwith "audit scenario: private page not mapped");
    mc "stray-pte" "INV-18" "map a page at a user address no VM area covers"
      (fun world ->
        let vpn = uncovered_user_vpn world in
        let pfn = X86.Phys_mem.alloc_frame (Kernel.phys world.kernel) in
        X86.Paging.map (task_dir world) ~vpn ~pfn ~writable:false ~user:false);
    mc "kernel-page-user" "INV-19" "mark a kernel-window page user-accessible"
      (fun world ->
        let vpn = L.kernel_base / L.page_size in
        if not (X86.Paging.set_user (task_dir world) ~vpn true) then
          failwith "audit scenario: first kernel page not mapped");
    mc "ext-frame-aliased" "INV-20"
      "repoint a kernel-window PTE at an extension-writable frame"
      (fun world ->
        let dir = task_dir world in
        let ext_pfn = ref None in
        X86.Paging.iter dir (fun vpn pte ->
            if
              !ext_pfn = None
              && vpn < Audit.Snapshot.kernel_vpn
              && pte.X86.Paging.user && pte.X86.Paging.writable
            then ext_pfn := Some pte.X86.Paging.pfn);
        let pfn =
          match !ext_pfn with
          | Some p -> p
          | None -> failwith "audit scenario: no extension-writable page"
        in
        (* Direct pte mutation: bypasses Paging.map on purpose, like a
           buggy driver scribbling on the page tables. *)
        let kvpn = ref None in
        X86.Paging.iter dir (fun vpn _ ->
            if !kvpn = None && vpn >= Audit.Snapshot.kernel_vpn then
              kvpn := Some vpn);
        match !kvpn with
        | Some vpn -> (
            match X86.Paging.lookup dir ~vpn with
            | Some pte -> pte.X86.Paging.pfn <- pfn
            | None -> assert false)
        | None -> failwith "audit scenario: no kernel page mapped");
    mc "ext-cs-promoted" "INV-21"
      "raise the extension code segment of a promoted task to DPL 2"
      (fun world ->
        let tk = task world in
        let sel = sel_exn "ext_cs" tk.Task.ext_cs in
        DT.set tk.Task.ldt (Sel.index sel)
          (Desc.code ~base:0 ~limit:L.user_limit ~dpl:P.R2 ()));
    mc "rogue-gdt-gate" "REACH-01"
      "plant an unregistered DPL 3 call gate straight into the kernel"
      (fun world ->
        ignore
          (DT.alloc (Kernel.gdt world.kernel)
             (Desc.call_gate ~dpl:P.R3
                ~target:(Kernel.kernel_code_selector world.kernel)
                ~entry:(Kernel.syscall_entry_offset world.kernel)
                ())));
    mc "rogue-idt-vector" "REACH-01"
      "add a DPL 3 trap vector targeting kernel code"
      (fun world ->
        DT.set (Kernel.idt world.kernel) 0x21
          (Desc.trap_gate ~dpl:P.R3
             ~target:(Kernel.kernel_code_selector world.kernel)
             ~entry:(Kernel.syscall_entry_offset world.kernel)
             ()));
  ]

let find_misconfig name =
  List.find_opt (fun m -> m.mc_name = name) misconfigs
