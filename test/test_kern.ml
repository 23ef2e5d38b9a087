(* Tests for the kernel substrate: address spaces, PPL policy, task
   management, system-call dispatch and fault policy. *)

module P = X86.Privilege

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let s32 v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

let boot_task () =
  let k = Kernel.boot () in
  let task = Kernel.create_task k ~name:"t" in
  (k, task)

(* --- Errno ------------------------------------------------------------ *)

let test_errno_roundtrip () =
  List.iter
    (fun e ->
      match Errno.of_ret (Errno.to_ret e) with
      | Some e' -> check_bool (Errno.to_string e) true (e = e')
      | None -> Alcotest.fail "lost errno")
    [ Errno.EPERM; Errno.EINVAL; Errno.ENOSYS; Errno.EFAULT; Errno.ENOMEM ];
  check_bool "positive is success" true (Errno.of_ret 5 = None)

(* --- Signals ------------------------------------------------------------ *)

let test_signal_delivery () =
  let st = Signal.create_state () in
  let hits = ref 0 in
  Signal.install st Signal.SIGSEGV (fun info ->
      incr hits;
      check_bool "addr present" true (info.Signal.fault_addr = Some 0x1234));
  let info =
    { Signal.signal = Signal.SIGSEGV; fault_addr = Some 0x1234; reason = "t" }
  in
  check_bool "handled" true (Signal.deliver st info);
  check_int "handler ran" 1 !hits;
  check_int "recorded" 1 (List.length (Signal.delivered st));
  Signal.uninstall st Signal.SIGSEGV;
  check_bool "unhandled after uninstall" false (Signal.deliver st info)

(* --- Vm_area ------------------------------------------------------------ *)

let test_vm_area_basics () =
  let a =
    Vm_area.create ~va_start:0x1000 ~va_end:0x3000 ~perms:Vm_area.rw ~ppl:P.User
      Vm_area.Data
  in
  check_bool "contains start" true (Vm_area.contains a 0x1000);
  check_bool "excludes end" false (Vm_area.contains a 0x3000);
  check_int "pages" 2 (Vm_area.pages a);
  check_bool "overlap" true (Vm_area.overlaps a ~va_start:0x2000 ~va_end:0x4000);
  check_bool "no overlap" false
    (Vm_area.overlaps a ~va_start:0x3000 ~va_end:0x4000);
  check_bool "write allowed" true (Vm_area.allows a X86.Fault.Write);
  check_bool "exec denied" false (Vm_area.allows a X86.Fault.Execute)

let test_vm_area_validation () =
  Alcotest.check_raises "unaligned" (Invalid_argument "Vm_area: unaligned start")
    (fun () ->
      ignore
        (Vm_area.create ~va_start:0x1001 ~va_end:0x3000 ~perms:Vm_area.rw
           ~ppl:P.User Vm_area.Data))

(* --- Address space ------------------------------------------------------- *)

let test_asp_mmap_find_free () =
  let _k, task = boot_task () in
  let asp = task.Task.asp in
  let a = Address_space.mmap asp ~len:8192 ~perms:Vm_area.rw Vm_area.Mmap_anon in
  let b = Address_space.mmap asp ~len:8192 ~perms:Vm_area.rw Vm_area.Mmap_anon in
  check_bool "distinct" true
    (not (Vm_area.overlaps a ~va_start:b.Vm_area.va_start ~va_end:b.Vm_area.va_end));
  check_bool "found" true (Address_space.find_area asp a.Vm_area.va_start = Some a)

let test_asp_overlap_rejected () =
  let _k, task = boot_task () in
  let asp = task.Task.asp in
  ignore
    (Address_space.map_area asp ~va_start:0x10000 ~len:8192 ~perms:Vm_area.rw
       Vm_area.Data);
  match
    Address_space.map_area asp ~va_start:0x11000 ~len:8192 ~perms:Vm_area.rw
      Vm_area.Data
  with
  | _ -> Alcotest.fail "overlap accepted"
  | exception Address_space.Overlap -> ()

let test_asp_demand_paging () =
  let _k, task = boot_task () in
  let asp = task.Task.asp in
  let a = Address_space.mmap asp ~len:4096 ~perms:Vm_area.ro Vm_area.Data in
  check_bool "demand read ok" true
    (Address_space.demand_map asp ~addr:a.Vm_area.va_start ~access:X86.Fault.Read);
  check_bool "write to ro area denied" false
    (Address_space.demand_map asp ~addr:a.Vm_area.va_start ~access:X86.Fault.Write);
  check_bool "outside any area" false
    (Address_space.demand_map asp ~addr:0x7FFF000 ~access:X86.Fault.Read)

let test_asp_promotion_policy () =
  let _k, task = boot_task () in
  let asp = task.Task.asp in
  let rw = Address_space.mmap asp ~len:4096 ~perms:Vm_area.rw Vm_area.Data in
  let ro = Address_space.mmap asp ~len:4096 ~perms:Vm_area.ro Vm_area.Data in
  let ext = Address_space.mmap asp ~len:4096 ~perms:Vm_area.rw Vm_area.Ext_data in
  List.iter (Address_space.populate asp) [ rw; ro; ext ];
  ignore (Address_space.promote asp);
  check_bool "writable app data hidden" true (rw.Vm_area.ppl = P.Supervisor);
  check_bool "read-only stays user" true (ro.Vm_area.ppl = P.User);
  check_bool "extension data stays user" true (ext.Vm_area.ppl = P.User);
  let late = Address_space.mmap asp ~len:4096 ~perms:Vm_area.rw Vm_area.Data in
  check_bool "late writable is supervisor" true (late.Vm_area.ppl = P.Supervisor)

let test_asp_set_range () =
  let _k, task = boot_task () in
  let asp = task.Task.asp in
  let a = Address_space.mmap asp ~len:(3 * 4096) ~perms:Vm_area.rw Vm_area.Data in
  Address_space.populate asp a;
  ignore (Address_space.promote asp);
  (match
     Address_space.set_range asp ~addr:a.Vm_area.va_start ~len:(3 * 4096) P.User
   with
  | Ok touched -> check_int "3 PTEs marked" 3 touched
  | Error _ -> Alcotest.fail "set_range failed");
  (match Address_space.set_range asp ~addr:0x7000000 ~len:4096 P.User with
  | Error Errno.EINVAL -> ()
  | _ -> Alcotest.fail "expected EINVAL");
  check_bool "ppl flipped" true (a.Vm_area.ppl = P.User)

let test_asp_clone_inherits () =
  let _k, task = boot_task () in
  let asp = task.Task.asp in
  let a = Address_space.mmap asp ~len:4096 ~perms:Vm_area.rw Vm_area.Data in
  Address_space.populate asp a;
  ignore (Address_space.promote asp);
  let c = Address_space.clone asp in
  check_bool "promotion inherited" true (Address_space.is_promoted c);
  check_int "areas copied"
    (List.length (Address_space.areas asp))
    (List.length (Address_space.areas c))

let test_asp_poke_peek () =
  let _k, task = boot_task () in
  let asp = task.Task.asp in
  let a = Address_space.mmap asp ~len:4096 ~perms:Vm_area.rw Vm_area.Data in
  Address_space.poke_string asp a.Vm_area.va_start "hello";
  check_bool "peek" true
    (Bytes.to_string (Address_space.peek_bytes asp a.Vm_area.va_start 5) = "hello");
  Address_space.poke_u32 asp (a.Vm_area.va_start + 100) 0xFEED;
  check_int "u32" 0xFEED (Address_space.peek_u32 asp (a.Vm_area.va_start + 100))

(* --- Tasks: fork and exec ----------------------------------------------- *)

let test_fork_inherits_exec_resets () =
  let k = Kernel.boot () in
  let app = Pbackend.create ~backend:Pbackend.Segmentation k ~name:"parent" in
  let parent = Pbackend.task app in
  check_bool "parent promoted" true (Task.is_promoted parent);
  let child = Kernel.fork_task k parent in
  check_bool "child promoted (fork inherits SPL)" true (Task.is_promoted child);
  check_bool "child inherits app segments" true (child.Task.app_cs <> None);
  check_bool "child has parent" true (child.Task.parent = Some parent.Task.pid);
  Kernel.exec_task k child;
  check_bool "exec resets to SPL3" false (Task.is_promoted child);
  check_bool "exec clears segments" true (child.Task.app_cs = None)

(* --- Syscall dispatch ----------------------------------------------------- *)

let test_syscall_dispatch_policy () =
  let k, task = boot_task () in
  let cpu = Kernel.cpu k in
  let table = Syscall.create_table () in
  Syscall.register table ~number:7 ~name:"seven" (fun _ -> 7);
  let ctx caller_spl =
    { Syscall.task; cpu; caller_spl; arg1 = 0; arg2 = 0; arg3 = 0 }
  in
  check_int "plain dispatch" 7 (Syscall.dispatch table (ctx P.R3) 7);
  check_int "enosys" (Errno.to_ret Errno.ENOSYS)
    (Syscall.dispatch table (ctx P.R3) 99);
  task.Task.task_spl <- P.R2;
  check_int "extension rejected" (Errno.to_ret Errno.EPERM)
    (Syscall.dispatch table (ctx P.R3) 7);
  check_int "application allowed" 7 (Syscall.dispatch table (ctx P.R2) 7)

let test_user_syscalls_end_to_end () =
  let k, task = boot_task () in
  let rt = Runtime.install k task in
  check_int "getpid" task.Task.pid (Runtime.syscall rt ~number:Syscall.sys_getpid);
  let addr = Runtime.syscall rt ~number:Syscall.sys_mmap ~a1:8192 ~a2:3 in
  check_bool "mmap gives user address" true (X86.Layout.is_user_address addr);
  check_int "munmap" 0
    (Runtime.syscall rt ~number:Syscall.sys_munmap ~a1:addr ~a2:8192);
  check_int "bad mmap" (Errno.to_ret Errno.EINVAL)
    (s32 (Runtime.syscall rt ~number:Syscall.sys_mmap ~a1:0 ~a2:3))

let test_write_syscall_console () =
  let k, task = boot_task () in
  let rt = Runtime.install k task in
  let a1 = Runtime.syscall rt ~number:Syscall.sys_mmap ~a1:4096 ~a2:3 in
  Address_space.poke_string task.Task.asp a1 "hi there";
  let n = Runtime.syscall rt ~number:Syscall.sys_write ~a1 ~a2:8 in
  check_int "bytes written" 8 n;
  check_bool "console content" true (Kernel.console_contents k = "hi there")

let test_exit_syscall () =
  let k, task = boot_task () in
  let rt = Runtime.install k task in
  ignore (Runtime.syscall rt ~number:Syscall.sys_exit ~a1:3);
  check_bool "exit code" true (task.Task.exit_code = Some 3)

(* --- Watchdog --------------------------------------------------------------- *)

let test_watchdog_expiry () =
  let wd = Watchdog.create ~tick_instrs:4 () in
  Watchdog.arm wd ~now:0 ~limit:100 ();
  check_bool "armed" true (Watchdog.is_armed wd);
  for now = 1 to 8 do
    Watchdog.check wd ~now
  done;
  match
    for _ = 1 to 8 do
      Watchdog.check wd ~now:500
    done
  with
  | () -> Alcotest.fail "expected expiry"
  | exception Watchdog.Expired e ->
      check_int "limit" 100 e.Watchdog.wd_limit;
      check_bool "disarmed after expiry" false (Watchdog.is_armed wd);
      check_int "counted" 1 (Watchdog.expirations wd)

(* --- Page fault policy -------------------------------------------------------- *)

let test_fault_policy_decisions () =
  let _k, task = boot_task () in
  let asp = task.Task.asp in
  let a = Address_space.mmap asp ~len:4096 ~perms:Vm_area.rw Vm_area.Data in
  (match
     Page_fault.decide ~cpl:P.R3 ~task
       (X86.Fault.Page_not_present
          { linear = a.Vm_area.va_start; access = X86.Fault.Write })
   with
  | Page_fault.Repaired -> ()
  | _ -> Alcotest.fail "expected repair");
  (match
     Page_fault.decide ~cpl:P.R3 ~task
       (X86.Fault.Page_privilege
          { linear = 0x1234; access = X86.Fault.Write; cpl = P.R3 })
   with
  | Page_fault.Deliver_segv _ -> ()
  | _ -> Alcotest.fail "expected segv");
  (match
     Page_fault.decide ~cpl:P.R1 ~task
       (X86.Fault.Limit_violation
          {
            selector = X86.Selector.make ~rpl:P.R1 5;
            offset = 0;
            limit = 0;
            access = X86.Fault.Read;
          })
   with
  | Page_fault.Kernel_ext_fault _ -> ()
  | _ -> Alcotest.fail "expected kernel-ext fault");
  match
    Page_fault.decide ~cpl:P.R0 ~task
      (X86.Fault.Page_not_present
         { linear = X86.Layout.kernel_base + 0x100; access = X86.Fault.Read })
  with
  | Page_fault.Panic _ -> ()
  | _ -> Alcotest.fail "expected panic"

(* --- Kernel memory ------------------------------------------------------------ *)

let test_kalloc_shared_across_tasks () =
  let k, t1 = boot_task () in
  let addr = Kernel.kalloc k ~bytes:4096 in
  let t2 = Kernel.create_task k ~name:"t2" in
  Kernel.kpoke_u32 k addr 0x77;
  check_int "visible via kernel" 0x77 (Kernel.kpeek_u32 k addr);
  let vpn = addr / 4096 in
  let mapped task =
    X86.Paging.lookup (Address_space.directory task.Task.asp) ~vpn <> None
  in
  check_bool "t1 sees kernel page" true (mapped t1);
  check_bool "t2 sees kernel page" true (mapped t2)

let () =
  Alcotest.run "kern"
    [
      ("errno", [ Alcotest.test_case "roundtrip" `Quick test_errno_roundtrip ]);
      ("signal", [ Alcotest.test_case "delivery" `Quick test_signal_delivery ]);
      ( "vm-area",
        [
          Alcotest.test_case "basics" `Quick test_vm_area_basics;
          Alcotest.test_case "validation" `Quick test_vm_area_validation;
        ] );
      ( "address-space",
        [
          Alcotest.test_case "mmap/find-free" `Quick test_asp_mmap_find_free;
          Alcotest.test_case "overlap rejected" `Quick test_asp_overlap_rejected;
          Alcotest.test_case "demand paging" `Quick test_asp_demand_paging;
          Alcotest.test_case "promotion PPL policy" `Quick test_asp_promotion_policy;
          Alcotest.test_case "set_range" `Quick test_asp_set_range;
          Alcotest.test_case "clone inherits" `Quick test_asp_clone_inherits;
          Alcotest.test_case "poke/peek" `Quick test_asp_poke_peek;
        ] );
      ( "tasks",
        [
          Alcotest.test_case "fork inherits, exec resets" `Quick
            test_fork_inherits_exec_resets;
        ] );
      ( "syscalls",
        [
          Alcotest.test_case "dispatch policy (taskSPL)" `Quick
            test_syscall_dispatch_policy;
          Alcotest.test_case "end-to-end via int 0x80" `Quick
            test_user_syscalls_end_to_end;
          Alcotest.test_case "write to console" `Quick test_write_syscall_console;
          Alcotest.test_case "exit" `Quick test_exit_syscall;
        ] );
      ( "watchdog",
        [ Alcotest.test_case "expiry at tick" `Quick test_watchdog_expiry ] );
      ( "fault-policy",
        [ Alcotest.test_case "decisions" `Quick test_fault_policy_decisions ] );
      ( "kernel-memory",
        [
          Alcotest.test_case "kalloc shared across tasks" `Quick
            test_kalloc_shared_across_tasks;
        ] );
    ]
