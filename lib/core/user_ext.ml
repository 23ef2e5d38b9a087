(* Segmentation-only extras of the user-level mechanism (section 4.4):
   application services reached through DPL 3 call gates. *)

type call_error = Pbackend.call_error =
  | Protection_fault of X86.Fault.t
  | Time_limit_exceeded of Watchdog.expiry
  | Runaway

let pp_call_error = Pbackend.pp_call_error

(* The service body runs at SPL 2, reached through a DPL 3 call gate;
   [handler] receives the address of the arguments the extension
   pushed on its own stack. *)
let add_service app ~name ~(handler : args_base:int -> int) =
  if Pbackend.backend_of app <> Pbackend.Segmentation then
    invalid_arg "User_ext.add_service: services need the segmentation backend";
  let kcall_name =
    Printf.sprintf "asvc$%d$%s" (Pbackend.task app).Task.pid name
  in
  Cpu.register_handler (Kernel.cpu (Pbackend.kernel app)) kcall_name
    (fun cpu ->
      let args_base = Cpu.get_reg cpu Reg.EBX in
      Cpu.set_reg cpu Reg.EAX (handler ~args_base));
  let label = "svc$" ^ name in
  let asm = Pbackend.emit_stubs app (Stub_gen.app_service ~label ~kcall_name) in
  Runtime.syscall_exn (Pbackend.runtime app) ~number:Syscall.sys_set_call_gate
    ~a1:(Asm.symbol asm label) ~name:"set_call_gate"
