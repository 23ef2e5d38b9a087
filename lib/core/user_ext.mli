(** What only the segmentation backend has: application services
    behind call gates (paper section 4.4.1).  Everything else about
    hosting an extensible application lives in {!Pbackend}; the error
    constructors are re-exported here under their historical names. *)

type call_error = Pbackend.call_error =
  | Protection_fault of X86.Fault.t
  | Time_limit_exceeded of Watchdog.expiry
  | Runaway

val pp_call_error : call_error Fmt.t

val add_service :
  Pbackend.app -> name:string -> handler:(args_base:int -> int) -> int
(** Expose an application service to extensions behind a DPL 3 call
    gate (the encapsulation required for buffering libc routines).
    [handler] receives the address of the arguments the extension
    pushed on its own stack; its return value goes back in EAX.
    Returns the encoded gate selector.
    @raise Invalid_argument for an application not under
    [Pbackend.Segmentation]. *)
