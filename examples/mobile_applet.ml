(* Mobile code on Palladium (paper section 6, first on-going
   direction): "Combined with restricted OS services, Palladium could
   provide the security guarantee for mobile applets that are written
   in a compiled language such as C."

   A browser-like host receives compiled applets "from the network",
   loads them into SPL 3 extension segments, and exposes exactly one
   restricted service (display).  A well-behaved applet renders
   through the service; a hostile applet tries the application's
   memory, a direct system call, and an infinite loop — and is stopped
   by the page hardware, the taskSPL check and the watchdog.

       dune exec examples/mobile_applet.exe *)

let i x = Asm.I x

let reg r = Operand.Reg r

(* "Downloaded" applet: computes 10 Fibonacci numbers and displays the
   last through the host's service gate (selector read from a shared
   slot the host fills in). *)
let fib_applet ~slot_addr =
  Image.create ~name:"fib-applet" ~exports:[ "main" ]
    [
      Asm.L "main";
      i (Instr.Mov (reg Reg.EAX, Operand.Imm 1)); (* f(n-1) *)
      i (Instr.Mov (reg Reg.EBX, Operand.Imm 1)); (* f(n) *)
      i (Instr.Mov (reg Reg.ECX, Operand.Imm 8));
      Asm.L "main.loop";
      i (Instr.Cmp (reg Reg.ECX, Operand.Imm 0));
      i (Instr.Jcc (Instr.Eq, Instr.Label "main.show"));
      i (Instr.Mov (reg Reg.EDX, reg Reg.EBX));
      i (Instr.Alu (Instr.Add, reg Reg.EBX, reg Reg.EAX));
      i (Instr.Mov (reg Reg.EAX, reg Reg.EDX));
      i (Instr.Dec (reg Reg.ECX));
      i (Instr.Jmp (Instr.Label "main.loop"));
      Asm.L "main.show";
      i (Instr.Push (reg Reg.EBX));
      i (Instr.Lcall_ind (Operand.absolute slot_addr)); (* display(f(10)) *)
      i (Instr.Alu (Instr.Add, reg Reg.ESP, Operand.Imm 4));
      i Instr.Ret;
    ]

let () =
  let world = Palladium.boot () in
  let browser = Palladium.create_app world ~name:"browser" in

  (* The restricted service surface: display only. *)
  let displayed = ref [] in
  let browser_ref = ref None in
  let display_sel =
    User_ext.add_service browser ~name:"display" ~handler:(fun ~args_base ->
        let b = Option.get !browser_ref in
        let v = Pbackend.peek_u32 b args_base in
        displayed := v :: !displayed;
        0)
  in
  browser_ref := Some browser;
  Printf.printf "browser exposes one service: display (gate %#x)\n" display_sel;

  (* Applet 1: well-behaved. *)
  let scratch = Pbackend.load browser Ulib.null_image in
  let slot = Pbackend.xmalloc scratch 4 in
  Pbackend.poke_u32 browser slot display_sel;
  let applet = Pbackend.load browser (fib_applet ~slot_addr:slot) in
  let main = Pbackend.resolve browser applet "main" in
  (match Pbackend.call browser ~prepare:main ~arg:0 with
  | Ok _ -> Printf.printf "applet displayed: %d (fib 10)\n" (List.hd !displayed)
  | Error e -> Fmt.pr "applet failed: %a\n" Pbackend.pp_call_error e);

  (* Applet 2: hostile. *)
  print_endline "\nhostile applet:";
  Pbackend.set_time_limit browser 100_000;
  let evil_mem = Pbackend.load browser Ulib.rogue_write_image in
  let poke = Pbackend.resolve browser evil_mem "poke" in
  let host_private =
    (List.find
       (fun (a : Vm_area.t) -> a.Vm_area.label = "palladium.data")
       (Address_space.areas (Pbackend.task browser).Task.asp))
      .Vm_area.va_start
  in
  (match Pbackend.call browser ~prepare:poke ~arg:host_private with
  | Error (Pbackend.Protection_fault _) ->
      print_endline "  - write to browser memory: blocked (page hardware)"
  | _ -> print_endline "  !! memory attack succeeded");
  let evil_sys = Pbackend.load browser Ulib.rogue_syscall_image in
  let try_sys = Pbackend.resolve browser evil_sys "try_syscall" in
  (match Pbackend.call browser ~prepare:try_sys ~arg:0 with
  | Ok (v, _) when v land 0x8000_0000 <> 0 ->
      print_endline "  - direct system call: rejected with EPERM (taskSPL)"
  | _ -> print_endline "  !! syscall escaped the sandbox");
  let evil_loop = Pbackend.load browser Ulib.rogue_loop_image in
  let spin = Pbackend.resolve browser evil_loop "spin" in
  (match Pbackend.call browser ~prepare:spin ~arg:0 with
  | Error (Pbackend.Time_limit_exceeded _) ->
      print_endline "  - infinite loop: aborted by the CPU-time watchdog"
  | _ -> print_endline "  !! loop ran forever");

  Printf.printf
    "\nbrowser survived all three attacks; %d SIGSEGV/SIGALRM signals handled\n"
    (List.length (Signal.delivered (Pbackend.task browser).Task.signals))
