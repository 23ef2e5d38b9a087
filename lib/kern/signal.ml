(* The small slice of POSIX signals Palladium needs: SIGSEGV for
   user-extension protection violations and SIGALRM-style notification
   when an extension exceeds its CPU-time limit. *)

type t = SIGSEGV | SIGALRM | SIGKILL | SIGILL

let number = function SIGSEGV -> 11 | SIGALRM -> 14 | SIGKILL -> 9 | SIGILL -> 4

let name = function
  | SIGSEGV -> "SIGSEGV"
  | SIGALRM -> "SIGALRM"
  | SIGKILL -> "SIGKILL"
  | SIGILL -> "SIGILL"

let pp ppf s = Fmt.string ppf (name s)

(* Extra context delivered with a signal (siginfo_t equivalent). *)
type info = {
  signal : t;
  fault_addr : int option;
  reason : string;
}

type handler = info -> unit

type state = {
  handlers : (int, handler) Hashtbl.t;
  delivered : info Obs.Ring.t; (* for inspection *)
}

let log_capacity = 64 (* bounds [delivered] and the kernel's SIGSEGV log *)

let create_state () =
  { handlers = Hashtbl.create 4; delivered = Obs.Ring.create log_capacity }

let install state signal handler =
  Hashtbl.replace state.handlers (number signal) handler

let uninstall state signal = Hashtbl.remove state.handlers (number signal)

let deliver state info =
  Obs.Ring.push state.delivered info;
  match Hashtbl.find_opt state.handlers (number info.signal) with
  | Some h ->
      h info;
      true
  | None -> false

let delivered state = Obs.Ring.to_list state.delivered
