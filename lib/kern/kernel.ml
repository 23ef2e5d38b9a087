(* The kernel: boots the simulated machine, owns the GDT/IDT, creates
   tasks, dispatches system calls arriving through the int-0x80
   interrupt gate, services faults with the Palladium policy, and
   implements the paper's three new system calls (init_PL, set_range,
   set_call_gate) plus the kernel modifications of section 4.5.2.

   Kernel *logic* runs as OCaml reached through the [Kcall] pseudo-
   instruction placed behind the interrupt gate; every control
   transfer, stack switch and memory access that the paper's
   measurements depend on is executed by the simulated CPU. *)

module P = X86.Privilege
module Sel = X86.Selector
module Desc = X86.Descriptor
module DT = X86.Desc_table
module Seg = X86.Segmentation
module F = X86.Fault

exception Panic of string

(* One world's settings on top of the process defaults: [None] follows
   the layer's default at read time, so a world without an override
   tracks a default changed after boot. *)
type policy = {
  mutable verify : Ppolicy.t option;
  mutable audit : Ppolicy.t option;
  mutable budget : Ppolicy.t option;
  mutable budget_cycles : int option;
}

type t = {
  kid : int; (* kernel instance id, keys external registries *)
  phys : X86.Phys_mem.t;
  code : Code_mem.t;
  gdt : DT.t;
  idt : DT.t;
  cpu : Cpu.t;
  bexec : Bexec.t; (* basic-block engine state attached to [cpu] *)
  boot_dir : X86.Paging.dir;
  boot_tss : Tss.t;
  mutable tasks : Task.t list;
  mutable current : Task.t option;
  mutable next_pid : int;
  console : Buffer.t;
  syscalls : Syscall.table;
  watchdog : Watchdog.t;
  mutable kbrk : int; (* next free kernel-core linear address *)
  mutable kext_brk : int; (* next free kernel-extension linear address *)
  mutable kernel_pages : (int * int) list; (* (vpn, pfn), newest first *)
  kcs : Sel.t;
  kds : Sel.t;
  ucs : Sel.t;
  uds : Sel.t;
  syscall_entry : int; (* kernel-segment offset of the int-0x80 stub *)
  invoke_entry : int; (* kernel trampoline: call fn ptr in EAX, arg EBX *)
  segv_log : (int * Signal.info) Obs.Ring.t; (* (pid, info), newest kept *)
  policy : policy;
  (* slots where upper layers (which this library cannot see) hang
     per-kernel state, keyed by a well-known slot name — dies with the
     kernel instead of leaking in a process-global registry *)
  ext_state : (string, ext_state) Hashtbl.t;
}

and ext_state = ..

let page_size = X86.Phys_mem.page_size

let id t = t.kid

(* --- Per-world policy and extension-state slots ---------------------- *)

let policy t = t.policy

(* The cycle budget admission and watchdog fuel are held to: the
   administrator's per-invocation limit unless this world pins one. *)
let budget_cycles t =
  match t.policy.budget_cycles with
  | Some n -> n
  | None -> Watchdog.default_limit_cycles

let set_ext_state t slot v = Hashtbl.replace t.ext_state slot v

let ext_state t slot = Hashtbl.find_opt t.ext_state slot

let clear_ext_state t slot = Hashtbl.remove t.ext_state slot

let cpu t = t.cpu

let bexec t = t.bexec

let gdt t = t.gdt

let idt t = t.idt

let tasks t = t.tasks

let boot_directory t = t.boot_dir

let code t = t.code

let phys t = t.phys

let console_contents t = Buffer.contents t.console

let console_write t s = Buffer.add_string t.console s

let watchdog t = t.watchdog

let kernel_code_selector t = t.kcs

let kernel_data_selector t = t.kds

let user_code_selector t = t.ucs

let user_data_selector t = t.uds

let segv_log t = Obs.Ring.to_list t.segv_log

let current t = t.current

let current_exn t =
  match t.current with
  | Some task -> task
  | None -> raise (Panic "no current task")

let find_task t pid = List.find_opt (fun (tk : Task.t) -> tk.Task.pid = pid) t.tasks

(* --- Kernel memory ------------------------------------------------- *)

(* Back [npages] starting at kernel linear [addr] with fresh frames,
   mapped supervisor into the boot directory and every task directory
   (the kernel occupies the same 3-4 GByte window of every address
   space, Figure 2). *)
let kmap_pages t ~addr ~npages =
  for i = 0 to npages - 1 do
    let vpn = (addr / page_size) + i in
    let pfn = X86.Phys_mem.alloc_frame t.phys in
    t.kernel_pages <- (vpn, pfn) :: t.kernel_pages;
    X86.Paging.map t.boot_dir ~vpn ~pfn ~writable:true ~user:false;
    List.iter
      (fun (task : Task.t) ->
        X86.Paging.map
          (Address_space.directory task.Task.asp)
          ~vpn ~pfn ~writable:true ~user:false)
      t.tasks
  done

(* Allocate kernel-core memory.  The core break must never reach the
   region kernel-extension segments are carved from: the auditor's
   segment-range invariant (and the paper's Figure 3 layout) depends
   on the two staying disjoint. *)
let kalloc t ~bytes =
  let addr = t.kbrk in
  let npages = X86.Layout.pages_spanning ~start:addr ~len:bytes in
  let next = X86.Layout.page_align_up (addr + bytes) in
  if next > X86.Layout.kernel_ext_base then
    raise (Panic "kalloc: kernel core break ran into the extension region");
  t.kbrk <- next;
  kmap_pages t ~addr ~npages;
  addr

(* Allocate kernel memory inside the extension region (section 4.3:
   extension segments live in their own carve-out above the core). *)
let kalloc_ext t ~bytes =
  let addr = t.kext_brk in
  let npages = X86.Layout.pages_spanning ~start:addr ~len:bytes in
  let next = X86.Layout.page_align_up (addr + bytes) in
  if next > X86.Layout.kernel_ext_base + X86.Layout.kernel_ext_region_size then
    raise (Panic "kalloc_ext: kernel extension region exhausted");
  t.kext_brk <- next;
  kmap_pages t ~addr ~npages;
  addr

(* Kernel-segment offset of a kernel linear address (kernel segments
   are based at 3 GByte). *)
let koffset addr = addr - X86.Layout.kernel_base

let klinear offset = offset + X86.Layout.kernel_base

let kstore_program t ~linear instrs =
  Code_mem.store_program t.code ~addr:linear instrs

(* Direct kernel access to kernel memory (all kernel pages live in the
   boot directory). *)
let kphys t linear =
  match X86.Paging.lookup t.boot_dir ~vpn:(linear / page_size) with
  | Some pte ->
      X86.Paging.linear_of_vpn pte.X86.Paging.pfn
      lor (linear land X86.Phys_mem.page_mask)
  | None -> raise (Panic (Printf.sprintf "kernel access to unmapped %#x" linear))

let kpoke_u32 t linear v = X86.Phys_mem.write_u32 t.phys (kphys t linear) v

let kpeek_u32 t linear = X86.Phys_mem.read_u32 t.phys (kphys t linear)

let kpoke_bytes t linear bytes =
  Bytes.iteri
    (fun i c -> X86.Phys_mem.write_u8 t.phys (kphys t (linear + i)) (Char.code c))
    bytes

let kpeek_bytes t linear len =
  Bytes.init len (fun i ->
      Char.chr (X86.Phys_mem.read_u8 t.phys (kphys t (linear + i))))

(* --- Fault policy --------------------------------------------------- *)

let c_sigsegv = Obs.Counters.counter "kern.sigsegv"

let c_ext_faults = Obs.Counters.counter "kern.ext_faults"

let install_fault_hook t =
  Cpu.set_on_fault t.cpu
    (Some
       (fun cpu fault ->
         let task = current_exn t in
         let outcome = Page_fault.decide ~cpl:(Cpu.cpl cpu) ~task fault in
         Cpu.charge cpu
           (Page_fault.software_cost ~params:(Cpu.params cpu) outcome);
         match outcome with
         | Page_fault.Repaired -> Cpu.Fault_continue
         | Page_fault.Deliver_segv info ->
             Obs.Ring.push t.segv_log (task.Task.pid, info);
             Obs.Counters.incr c_sigsegv;
             ignore (Signal.deliver task.Task.signals info);
             Cpu.Fault_stop
         | Page_fault.Kernel_ext_fault _ ->
             Obs.Counters.incr c_ext_faults;
             Cpu.Fault_stop
         | Page_fault.Panic msg -> raise (Panic msg)))

(* The watchdog rides the CPU's periodic tick, not [on_instr]: the
   block engine services the tick countdown on its fast path, whereas
   a per-instruction hook would force every slot onto the slow path. *)
let install_watchdog_hook t =
  Cpu.set_on_tick t.cpu
    ~every:(Watchdog.tick_instrs t.watchdog)
    (Some (fun cpu -> Watchdog.check t.watchdog ~now:(Cpu.cycles cpu)))

(* --- System calls --------------------------------------------------- *)

let reg_syscall t ~number ~name fn = Syscall.register t.syscalls ~number ~name fn

let prot_of_bits bits =
  {
    Vm_area.pr = bits land 1 <> 0;
    pw = bits land 2 <> 0;
    px = bits land 4 <> 0;
  }

let sys_exit (ctx : Syscall.context) =
  ctx.Syscall.task.Task.exit_code <- Some ctx.Syscall.arg1;
  Cpu.set_halted ctx.Syscall.cpu true;
  0

let sys_write t (ctx : Syscall.context) =
  let addr = ctx.Syscall.arg1 and len = ctx.Syscall.arg2 in
  match
    Address_space.peek_bytes ctx.Syscall.task.Task.asp addr len
  with
  | bytes ->
      Buffer.add_bytes t.console bytes;
      Cpu.charge ctx.Syscall.cpu (len / 4);
      len
  | exception Invalid_argument _ -> Errno.to_ret Errno.EFAULT

let sys_getpid (ctx : Syscall.context) = ctx.Syscall.task.Task.pid

let sys_time (ctx : Syscall.context) =
  Cpu.cycles ctx.Syscall.cpu land 0x3FFF_FFFF

let sys_mmap (ctx : Syscall.context) =
  let len = ctx.Syscall.arg1 and prot = ctx.Syscall.arg2 in
  if len <= 0 then Errno.to_ret Errno.EINVAL
  else
    let area =
      Address_space.mmap ctx.Syscall.task.Task.asp ~len
        ~perms:(prot_of_bits prot) Vm_area.Mmap_anon
    in
    area.Vm_area.va_start

let sys_munmap (ctx : Syscall.context) =
  let addr = ctx.Syscall.arg1 and len = ctx.Syscall.arg2 in
  ignore (Address_space.munmap ctx.Syscall.task.Task.asp ~addr ~len);
  (* drop cached translations of the freed frames *)
  X86.Mmu.flush_tlb (Cpu.mmu ctx.Syscall.cpu);
  0

(* mprotect, with the paper's rule that an SPL 3 extension cannot
   tamper with the protection of an SPL 2 application's memory.  (The
   dispatcher already rejects SPL 3 callers of promoted tasks
   entirely; this guards unpromoted flows and application services
   forwarding on behalf of extensions.) *)
let sys_mprotect t (ctx : Syscall.context) =
  ignore t;
  let addr = ctx.Syscall.arg1
  and len = ctx.Syscall.arg2
  and prot = ctx.Syscall.arg3 in
  let task = ctx.Syscall.task in
  if P.equal ctx.Syscall.caller_spl P.R3 && Task.is_promoted task then
    Errno.to_ret Errno.EPERM
  else
    match
      Address_space.mprotect task.Task.asp ~addr ~len ~perms:(prot_of_bits prot)
    with
    | Ok () ->
        X86.Mmu.flush_tlb (Cpu.mmu ctx.Syscall.cpu);
        0
    | Error e -> Errno.to_ret e

(* init_PL (section 4.4.1): promote the calling process to SPL 2,
   mark all its writable pages PPL 0, create the extension segment
   (SPL 3, spanning 0-3 GByte) and the DPL 2 application segments. *)
let sys_init_pl t (ctx : Syscall.context) =
  let task = ctx.Syscall.task in
  let cpu = ctx.Syscall.cpu in
  if Task.is_promoted task then Errno.to_ret Errno.EPERM
  else begin
    let ldt = task.Task.ldt in
    let lim = X86.Layout.user_limit in
    let app_cs_i = DT.alloc ldt (Desc.code ~base:0 ~limit:lim ~dpl:P.R2 ()) in
    let app_ss_i = DT.alloc ldt (Desc.data ~base:0 ~limit:lim ~dpl:P.R2 ()) in
    let ext_cs_i = DT.alloc ldt (Desc.code ~base:0 ~limit:lim ~dpl:P.R3 ()) in
    let app_cs = Sel.make ~table:Sel.Ldt ~rpl:P.R2 app_cs_i in
    let app_ss = Sel.make ~table:Sel.Ldt ~rpl:P.R2 app_ss_i in
    let ext_cs = Sel.make ~table:Sel.Ldt ~rpl:P.R3 ext_cs_i in
    task.Task.app_cs <- Some app_cs;
    task.Task.app_ss <- Some app_ss;
    task.Task.ext_cs <- Some ext_cs;
    (* Landing stack for call-gate transfers into ring 2 (the hardware
       loads SS:ESP from the TSS; AppCallGate immediately switches to
       the saved application stack). *)
    let gate_area =
      Address_space.mmap task.Task.asp ~len:page_size ~perms:Vm_area.rw
        ~label:"ring2 gate landing" Vm_area.Gate_stack
    in
    Address_space.populate task.Task.asp gate_area;
    Tss.set_stack task.Task.tss P.R2
      {
        Tss.stack_selector = app_ss;
        stack_pointer = gate_area.Vm_area.va_end;
      };
    (* PPL marking of all writable pages. *)
    let pages = Address_space.promote task.Task.asp in
    X86.Mmu.flush_tlb (Cpu.mmu cpu);
    Cpu.charge cpu (Kcosts.ppl_mark_startup + (Kcosts.ppl_mark_per_page * pages));
    task.Task.task_spl <- P.R2;
    task.Task.user_cs <- app_cs;
    task.Task.user_ss <- app_ss;
    (* Patch the interrupt frame so iret resumes the caller at SPL 2
       on its own (now DPL 2) stack segment. *)
    let ss = Cpu.seg_reg cpu Reg.SS in
    let esp = Cpu.get_reg cpu Reg.ESP in
    Cpu.write_mem cpu ss ~offset:(esp + 4) ~size:4 (Sel.encode app_cs);
    Cpu.write_mem cpu ss ~offset:(esp + 16) ~size:4 (Sel.encode app_ss);
    ignore t;
    0
  end

(* set_range (section 4.4.2): expose (PPL 1) or hide (PPL 0) a page
   range; only the SPL 2 application may call it. *)
let sys_set_range (ctx : Syscall.context) =
  let task = ctx.Syscall.task in
  if not (P.equal ctx.Syscall.caller_spl P.R2) then Errno.to_ret Errno.EPERM
  else
    let level = if ctx.Syscall.arg3 = 0 then P.Supervisor else P.User in
    match
      Address_space.set_range task.Task.asp ~addr:ctx.Syscall.arg1
        ~len:ctx.Syscall.arg2 level
    with
    | Error e -> Errno.to_ret e
    | Ok touched ->
        X86.Mmu.flush_tlb (Cpu.mmu ctx.Syscall.cpu);
        Cpu.charge ctx.Syscall.cpu
          (Kcosts.ppl_mark_startup + (Kcosts.ppl_mark_per_page * touched));
        0

(* set_call_gate (section 4.4.2): install a DPL 3 call gate targeting
   an application-service entry point; returns the encoded selector. *)
let sys_set_call_gate (ctx : Syscall.context) =
  let task = ctx.Syscall.task in
  if not (P.equal ctx.Syscall.caller_spl P.R2) then Errno.to_ret Errno.EPERM
  else
    match task.Task.app_cs with
    | None -> Errno.to_ret Errno.EPERM
    | Some app_cs ->
        let gate =
          Desc.call_gate ~dpl:P.R3 ~target:app_cs ~entry:ctx.Syscall.arg1 ()
        in
        let idx = DT.alloc task.Task.ldt gate in
        task.Task.gate_entries <-
          (idx, ctx.Syscall.arg1) :: task.Task.gate_entries;
        Sel.encode (Sel.make ~table:Sel.Ldt ~rpl:P.R3 idx)

(* init_mpk: the protection-key analogue of init_PL.  The process
   keeps its flat ring 3 segments — no LDT descriptors, no call gates,
   no TSS stack — and instead all its writable private pages are
   stamped with the application key (arg1).  Confinement then comes
   from the PKRU values the backend's entry/exit stubs write: the
   extension runs with a PKRU that denies the application key.
   Extensions cannot call this (or set_key) themselves: the load-time
   verifier rejects [int 0x80] in extension images. *)
let sys_init_mpk (ctx : Syscall.context) =
  let task = ctx.Syscall.task in
  let cpu = ctx.Syscall.cpu in
  let app_key = ctx.Syscall.arg1 in
  if Task.is_promoted task || Address_space.is_mpk task.Task.asp then
    Errno.to_ret Errno.EPERM
  else if app_key <= 0 || app_key >= X86.Paging.key_count then
    Errno.to_ret Errno.EINVAL
  else begin
    (* Key marking walks the same page tables PPL marking does, so it
       is priced identically. *)
    let pages = Address_space.mpk_promote task.Task.asp ~app_key in
    X86.Mmu.flush_tlb (Cpu.mmu cpu);
    Cpu.charge cpu (Kcosts.ppl_mark_startup + (Kcosts.ppl_mark_per_page * pages));
    0
  end

(* set_key: assign a protection key to a page range — extension areas
   after loading (extension key), or shared buffers (key 0 = expose to
   everyone).  Only meaningful after init_mpk.  No TLB flush is needed
   for the *decision* (the TLB caches the key, not the verdict), but
   the cached key itself changes, so stale entries must go. *)
let sys_set_key (ctx : Syscall.context) =
  let task = ctx.Syscall.task in
  if not (Address_space.is_mpk task.Task.asp) then Errno.to_ret Errno.EPERM
  else
    match
      Address_space.set_key_range task.Task.asp ~addr:ctx.Syscall.arg1
        ~len:ctx.Syscall.arg2 ctx.Syscall.arg3
    with
    | Error e -> Errno.to_ret e
    | Ok touched ->
        X86.Mmu.flush_tlb (Cpu.mmu ctx.Syscall.cpu);
        Cpu.charge ctx.Syscall.cpu
          (Kcosts.ppl_mark_startup + (Kcosts.ppl_mark_per_page * touched));
        0

(* --- Task management ------------------------------------------------ *)

let kernel_stack_pages = 2

let make_task_dir t =
  let dir = X86.Paging.create () in
  List.iter
    (fun (vpn, pfn) -> X86.Paging.map dir ~vpn ~pfn ~writable:true ~user:false)
    t.kernel_pages;
  dir

let create_task t ~name =
  (* Allocate the kernel stack first so the new directory picks the
     mapping up with the rest of the kernel pages. *)
  let kstack = kalloc t ~bytes:(kernel_stack_pages * page_size) in
  let kstack_top = kstack + (kernel_stack_pages * page_size) in
  let dir = make_task_dir t in
  let asp = Address_space.create ~phys:t.phys ~dir in
  let ldt = DT.ldt (name ^ ".ldt") in
  let tss = Tss.create ~dir ~ldt () in
  Tss.set_stack tss P.R0
    { Tss.stack_selector = t.kds; stack_pointer = koffset kstack_top };
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  let task =
    Task.create ~pid ~name ~asp ~ldt ~tss ~kernel_stack_top:kstack_top
      ~user_cs:t.ucs ~user_ss:t.uds ~user_ds:t.uds
  in
  t.tasks <- task :: t.tasks;
  task

(* fork (section 4.5.2): segment/page privilege levels are inherited
   along with the entire memory map; the clone continues at SPL 2 and
   inherits loaded extensions (it shares the parent's LDT content by
   copying it). *)
let fork_task t (parent : Task.t) =
  let kstack = kalloc t ~bytes:(kernel_stack_pages * page_size) in
  let kstack_top = kstack + (kernel_stack_pages * page_size) in
  let asp = Address_space.clone parent.Task.asp in
  (* The cloned directory lacks kernel pages added after the parent's
     creation only if cloned from a stale dir; clone copies everything
     including kernel mappings, then we add the new kernel stack. *)
  List.iter
    (fun (vpn, pfn) ->
      X86.Paging.map
        (Address_space.directory asp)
        ~vpn ~pfn ~writable:true ~user:false)
    t.kernel_pages;
  let ldt = DT.ldt (parent.Task.name ^ ".child.ldt") in
  DT.iter parent.Task.ldt (fun i d -> DT.set ldt i d);
  let tss = Tss.create ~dir:(Address_space.directory asp) ~ldt () in
  Tss.set_stack tss P.R0
    { Tss.stack_selector = t.kds; stack_pointer = koffset kstack_top };
  (match parent.Task.app_ss with
  | Some app_ss -> (
      match Tss.stack_for parent.Task.tss P.R2 with
      | stack -> Tss.set_stack tss P.R2 { stack with Tss.stack_selector = app_ss }
      | exception X86.Fault.Fault _ -> ())
  | None -> ());
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  let child =
    Task.create ~pid ~name:(parent.Task.name ^ "+") ~asp ~ldt ~tss
      ~kernel_stack_top:kstack_top ~user_cs:parent.Task.user_cs
      ~user_ss:parent.Task.user_ss ~user_ds:parent.Task.user_ds
  in
  child.Task.task_spl <- parent.Task.task_spl;
  child.Task.app_cs <- parent.Task.app_cs;
  child.Task.app_ss <- parent.Task.app_ss;
  child.Task.ext_cs <- parent.Task.ext_cs;
  child.Task.gate_entries <- parent.Task.gate_entries;
  child.Task.parent <- Some parent.Task.pid;
  t.tasks <- child :: t.tasks;
  child

let sys_fork t (ctx : Syscall.context) =
  let child = fork_task t ctx.Syscall.task in
  child.Task.pid

(* exec: privilege levels are *not* inherited across exec — the new
   image starts at SPL 3 with a fresh address space and LDT. *)
let exec_task t (task : Task.t) =
  let dir = make_task_dir t in
  task.Task.asp <- Address_space.create ~phys:t.phys ~dir;
  task.Task.task_spl <- P.R3;
  task.Task.app_cs <- None;
  task.Task.app_ss <- None;
  task.Task.ext_cs <- None;
  task.Task.gate_entries <- [];
  task.Task.user_cs <- t.ucs;
  task.Task.user_ss <- t.uds;
  task.Task.user_ds <- t.uds;
  Tss.set_directory task.Task.tss dir;
  (* Fresh LDT: drop descriptors accumulated by the old image. *)
  DT.iter task.Task.ldt (fun i _ -> DT.clear task.Task.ldt i)

let sys_exec t (ctx : Syscall.context) =
  exec_task t ctx.Syscall.task;
  0

(* --- Entering user mode --------------------------------------------- *)

let view_for t (task : Task.t) = DT.view ~ldt:task.Task.ldt t.gdt

(* Switch the CPU to [task].  Re-entering the current task does not
   reload CR3 (no TLB flush) — the hardware only switches on a task
   change, and the paper's measurements are warm-cache. *)
let switch_to t (task : Task.t) =
  match t.current with
  | Some cur when cur == task -> ()
  | Some _ | None ->
      t.current <- Some task;
      Cpu.switch_task t.cpu ~view:(view_for t task) ~tss:task.Task.tss

(* Place the CPU in user mode at [eip]/[esp] using the task's current
   user segments (DPL 3 GDT segments, or the DPL 2 LDT segments after
   promotion). *)
let enter_user t (task : Task.t) ~eip ~esp =
  switch_to t task;
  let view = view_for t task in
  let cpl = Sel.rpl task.Task.user_cs in
  Cpu.force_seg t.cpu Reg.CS (Seg.load_code view ~new_cpl:cpl task.Task.user_cs);
  Cpu.force_seg t.cpu Reg.SS (Seg.load_stack view ~cpl task.Task.user_ss);
  Cpu.force_seg t.cpu Reg.DS (Seg.load_data view ~cpl task.Task.user_ds);
  Cpu.force_seg t.cpu Reg.ES (Seg.load_data view ~cpl task.Task.user_ds);
  Cpu.set_eip t.cpu eip;
  Cpu.set_reg t.cpu Reg.ESP esp;
  Cpu.set_halted t.cpu false

type run_result =
  | Completed
  | Faulted of F.t
  | Timed_out of Watchdog.expiry
  | Out_of_fuel

let run t ?max_instrs () =
  match Cpu.run ?max_instrs t.cpu with
  | Cpu.Halted -> Completed
  | Cpu.Max_instructions -> Out_of_fuel
  | Cpu.Fault_abort f -> Faulted f
  | exception Watchdog.Expired e -> Timed_out e

(* --- User program loading ------------------------------------------ *)

(* Map an assembled program's text into user space and store its
   instructions; returns nothing — symbols are in [asm]. *)
let map_user_text t (task : Task.t) (asm : Asm.assembled) =
  let area =
    Address_space.map_area task.Task.asp ~va_start:asm.Asm.org
      ~len:(max asm.Asm.text_size page_size) ~perms:Vm_area.rx Vm_area.Text
  in
  Address_space.populate task.Task.asp area;
  Code_mem.store_program t.code ~addr:asm.Asm.org asm.Asm.instrs

let map_user_stack t (task : Task.t) ~pages =
  ignore t;
  let len = pages * page_size in
  let va_start = X86.Layout.stack_top - len in
  let area =
    Address_space.map_area task.Task.asp ~va_start ~len ~perms:Vm_area.rw
      Vm_area.Stack
  in
  Address_space.populate task.Task.asp area;
  X86.Layout.stack_top (* initial ESP *)

let map_user_data t (task : Task.t) ~addr ~len ~label =
  ignore t;
  let area =
    Address_space.map_area task.Task.asp ~va_start:addr ~len ~perms:Vm_area.rw
      ~label Vm_area.Data
  in
  Address_space.populate task.Task.asp area;
  area

(* --- Boot ------------------------------------------------------------ *)

let install_syscall_handler t =
  Cpu.register_handler t.cpu "sys" (fun cpu ->
      let ss = Cpu.seg_reg cpu Reg.SS in
      let esp = Cpu.get_reg cpu Reg.ESP in
      (* Interrupt frame: [eip][cs][eflags][esp][ss] from esp up. *)
      let saved_cs = Cpu.read_mem cpu ss ~offset:(esp + 4) ~size:4 in
      let caller_spl = Sel.rpl (Sel.decode (saved_cs land 0xFFFF)) in
      let task = current_exn t in
      let number = Cpu.get_reg cpu Reg.EAX in
      let ctx =
        {
          Syscall.task;
          cpu;
          caller_spl;
          arg1 = Cpu.get_reg cpu Reg.EBX;
          arg2 = Cpu.get_reg cpu Reg.ECX;
          arg3 = Cpu.get_reg cpu Reg.EDX;
        }
      in
      Cpu.charge cpu Kcosts.syscall_software;
      let ret = Syscall.dispatch t.syscalls ctx number in
      Cpu.set_reg cpu Reg.EAX ret)

(* Handler used by kernel-extension Prepare stubs: point the TSS
   ring-0 stack at the current kernel ESP so the extension's return
   through the kernel call gate lands just below the live frames. *)
let install_sp0_handler t =
  Cpu.register_handler t.cpu "set_sp0" (fun cpu ->
      let task = current_exn t in
      Tss.set_stack task.Task.tss P.R0
        {
          Tss.stack_selector = t.kds;
          stack_pointer = Cpu.get_reg cpu Reg.ESP;
        };
      Cpu.charge cpu 2)

let register_base_syscalls t =
  reg_syscall t ~number:Syscall.sys_exit ~name:"exit" sys_exit;
  reg_syscall t ~number:Syscall.sys_fork ~name:"fork" (sys_fork t);
  reg_syscall t ~number:Syscall.sys_write ~name:"write" (sys_write t);
  reg_syscall t ~number:11 ~name:"exec" (sys_exec t);
  reg_syscall t ~number:Syscall.sys_time ~name:"time" sys_time;
  reg_syscall t ~number:Syscall.sys_getpid ~name:"getpid" sys_getpid;
  reg_syscall t ~number:Syscall.sys_mmap ~name:"mmap" sys_mmap;
  reg_syscall t ~number:Syscall.sys_munmap ~name:"munmap" sys_munmap;
  reg_syscall t ~number:Syscall.sys_mprotect ~name:"mprotect" (sys_mprotect t);
  reg_syscall t ~number:Syscall.sys_init_pl ~name:"init_PL" (sys_init_pl t);
  reg_syscall t ~number:Syscall.sys_set_range ~name:"set_range" sys_set_range;
  reg_syscall t ~number:Syscall.sys_set_call_gate ~name:"set_call_gate"
    sys_set_call_gate;
  reg_syscall t ~number:Syscall.sys_init_mpk ~name:"init_mpk" sys_init_mpk;
  reg_syscall t ~number:Syscall.sys_set_key ~name:"set_key" sys_set_key

(* Atomic so kernels booted by worlds on different domains still get
   unique ids. *)
let next_kid = Atomic.make 0

let boot ?(params = Cycles.pentium) () =
  let kid = Atomic.fetch_and_add next_kid 1 + 1 in
  let phys = X86.Phys_mem.create () in
  let gdt = DT.gdt () in
  let lim = X86.Layout.user_limit in
  let klim = X86.Layout.kernel_limit in
  DT.set gdt X86.Layout.gdt_kernel_code
    (Desc.code ~base:X86.Layout.kernel_base ~limit:klim ~dpl:P.R0 ());
  DT.set gdt X86.Layout.gdt_kernel_data
    (Desc.data ~base:X86.Layout.kernel_base ~limit:klim ~dpl:P.R0 ());
  DT.set gdt X86.Layout.gdt_user_code (Desc.code ~base:0 ~limit:lim ~dpl:P.R3 ());
  DT.set gdt X86.Layout.gdt_user_data (Desc.data ~base:0 ~limit:lim ~dpl:P.R3 ());
  let kcs = Sel.make ~rpl:P.R0 X86.Layout.gdt_kernel_code in
  let kds = Sel.make ~rpl:P.R0 X86.Layout.gdt_kernel_data in
  let ucs = Sel.make ~rpl:P.R3 X86.Layout.gdt_user_code in
  let uds = Sel.make ~rpl:P.R3 X86.Layout.gdt_user_data in
  let idt = DT.create ~capacity:256 ~name:"idt" ~is_gdt:false () in
  let code = Code_mem.create () in
  let boot_dir = X86.Paging.create () in
  let mmu = X86.Mmu.create phys ~dir:boot_dir in
  let boot_tss = Tss.create ~dir:boot_dir () in
  let cpu =
    Cpu.create ~mmu ~code ~view:(DT.view gdt) ~idt ~tss:boot_tss ~params ()
  in
  let bexec = Bexec.attach cpu in
  let t =
    {
      kid;
      phys;
      code;
      gdt;
      idt;
      cpu;
      bexec;
      boot_dir;
      boot_tss;
      tasks = [];
      current = None;
      next_pid = 1;
      console = Buffer.create 256;
      syscalls = Syscall.create_table ();
      watchdog = Watchdog.create ();
      kbrk = X86.Layout.kernel_base;
      kext_brk = X86.Layout.kernel_ext_base;
      kernel_pages = [];
      kcs;
      kds;
      ucs;
      uds;
      syscall_entry = 0;
      invoke_entry = 0;
      segv_log = Obs.Ring.create Signal.log_capacity;
      policy = { verify = None; audit = None; budget = None; budget_cycles = None };
      ext_state = Hashtbl.create 4;
    }
  in
  (* Kernel text: the int-0x80 entry stub and the kernel invoke
     trampoline (call the function pointer in EAX with the argument in
     EBX, then halt — how the OCaml-level kernel logic drives
     simulated kernel code). *)
  let stub_linear = kalloc t ~bytes:page_size in
  kstore_program t ~linear:stub_linear [| Instr.Kcall "sys"; Instr.Iret |];
  let invoke_linear = stub_linear + (4 * Instr.size) in
  kstore_program t ~linear:invoke_linear
    [|
      Instr.Mark "rt.start";
      Instr.Push (Operand.Reg Reg.EBX);
      Instr.Call_ind (Operand.Reg Reg.EAX);
      Instr.Mark "rt.done";
      Instr.Alu (Instr.Add, Operand.Reg Reg.ESP, Operand.Imm 4);
      Instr.Hlt;
    |];
  let t =
    {
      t with
      syscall_entry = koffset stub_linear;
      invoke_entry = koffset invoke_linear;
    }
  in
  DT.set idt 0x80
    (Desc.interrupt_gate ~dpl:P.R3 ~target:kcs ~entry:t.syscall_entry ());
  install_syscall_handler t;
  install_sp0_handler t;
  install_fault_hook t;
  install_watchdog_hook t;
  register_base_syscalls t;
  t

let syscall_entry_offset t = t.syscall_entry

let invoke_entry_offset t = t.invoke_entry

let kernel_break t = t.kbrk

let kernel_ext_break t = t.kext_brk

(* Convenience used by tests and the Palladium runtime: run kernel
   code directly (CPL 0) at a given kernel-segment offset.  The CPU is
   placed on the current task's kernel stack. *)
let enter_kernel t (task : Task.t) ~entry_offset =
  switch_to t task;
  let view = view_for t task in
  Cpu.force_seg t.cpu Reg.CS (Seg.load_code view ~new_cpl:P.R0 t.kcs);
  Cpu.force_seg t.cpu Reg.SS (Seg.load_stack view ~cpl:P.R0 t.kds);
  Cpu.force_seg t.cpu Reg.DS (Seg.load_data view ~cpl:P.R0 t.kds);
  Cpu.force_seg t.cpu Reg.ES (Seg.load_data view ~cpl:P.R0 t.kds);
  Cpu.set_eip t.cpu entry_offset;
  Cpu.set_reg t.cpu Reg.ESP (koffset task.Task.kernel_stack_top);
  Cpu.set_halted t.cpu false

(* Run kernel code: call the function at [fn_offset] (kernel-segment
   offset) with [arg], at CPL 0 on the task's kernel stack, through
   the kernel invoke trampoline.  Returns the run result, EAX and the
   cycles consumed. *)
let kernel_invoke t (task : Task.t) ~fn_offset ~arg =
  enter_kernel t task ~entry_offset:t.invoke_entry;
  Cpu.set_reg t.cpu Reg.EAX fn_offset;
  Cpu.set_reg t.cpu Reg.EBX arg;
  let before = Cpu.cycles t.cpu in
  let result = run t () in
  (result, Cpu.get_reg t.cpu Reg.EAX, Cpu.cycles t.cpu - before)
