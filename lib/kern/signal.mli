(** The signal slice Palladium needs: SIGSEGV for protection
    violations by user extensions, SIGALRM for time-limit expiry. *)

type t = SIGSEGV | SIGALRM | SIGKILL | SIGILL

val number : t -> int

val name : t -> string

val pp : t Fmt.t

(** Delivery context (siginfo_t equivalent). *)
type info = { signal : t; fault_addr : int option; reason : string }

type handler = info -> unit

type state

val create_state : unit -> state

val install : state -> t -> handler -> unit

val uninstall : state -> t -> unit

val deliver : state -> info -> bool
(** Record and dispatch; [true] when a handler was installed. *)

val delivered : state -> info list
(** The newest {!log_capacity} deliveries, oldest first. *)

val log_capacity : int
(** Bound of every signal log, {!Kernel.segv_log} included. *)
