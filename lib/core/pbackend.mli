(** The compartment driver: the one host for extensible applications.

    A backend is one answer to "how is the application/extension
    boundary enforced".  [Segmentation] is the paper's user-level
    mechanism (section 4.4): the application promotes itself to SPL 2
    (all its writable pages become PPL 0), extensions load into SPL 3
    extension segments spanning the same range, and calls go through
    generated Prepare/Transfer stubs with the AppCallGate return path.
    [Mpk] is the protection-key re-expression of its paging half: the
    application stays a flat ring 3 process, its writable private
    pages carry {!app_key}, extension pages {!ext_key}, and a protected
    call is one stub that switches stacks and writes PKRU twice.
    Wrong-key accesses raise [Fault.Page_key] exactly where
    segmentation raises PPL faults.

    Everything but six steps — promotion, marking loaded areas, the
    entry stub, expose/hide, the phase names and the clean-up after an
    aborted call — is shared.  Software fault isolation rewrites
    modules rather than hosting applications; it is a benchmark-only
    comparator driven through {!Kmod}.

    Selection: the process default ([set_default], seeded from
    [PALLADIUM_BACKEND]) is read once, when a world boots without
    [Palladium.boot ?backend]; the world keeps that backend for life
    ([Palladium.backend]).  [create] takes the backend explicitly, and
    [Palladium.create_backend_app ?backend] passes the world's unless
    told otherwise. *)

type kind = Segmentation | Mpk

val all : kind list

val kind_name : kind -> string
(** "seg" | "mpk". *)

val kind_of_string : string -> kind option
(** Accepts the [kind_name] spellings plus common aliases
    ("segmentation", "pku", "keys"). *)

val expected : string
(** Human-readable list of accepted spellings, for error messages. *)

val default : unit -> kind
(** The process default; worlds booted afterwards without an explicit
    backend take it. *)

val set_default : kind -> unit

val app_key : int
(** Mpk: protection key of the application's writable private pages (1). *)

val ext_key : int
(** Mpk: protection key of extension pages (2). *)

(** Why a protected call did not complete. *)
type call_error =
  | Protection_fault of X86.Fault.t
      (** the extension strayed outside its domain; SIGSEGV was
          delivered to the application *)
  | Time_limit_exceeded of Watchdog.expiry
      (** the per-invocation CPU budget expired (SIGALRM delivered) *)
  | Runaway  (** simulator instruction fuel exhausted *)

val pp_call_error : call_error Fmt.t

(** A loaded extension: its image, stack, heap and generated stubs. *)
type ext = {
  x_name : string;
  x_handle : Dyld.handle;
  x_arg_slot : int;  (** top extension-stack slot; initial extension ESP *)
  x_heap_base : int;
  x_heap_end : int;
  mutable x_heap_cursor : int;
  mutable x_functions : (string * int) list;
      (** function name -> protected-call entry stub *)
}

(** An extensible application. *)
type app

(** {2 Creating an extensible application} *)

val create : backend:kind -> Kernel.t -> name:string -> app
(** Create a task, install the user-mode runtime and the data/stub
    regions, and promote it under [backend]:
    init_PL plus the AppCallGate return gate, or init_mpk plus
    registration of the key domain with the auditor. *)

val backend_of : app -> kind

val task : app -> Task.t

val kernel : app -> Kernel.t

val runtime : app -> Runtime.t

val env : app -> Dyld.env

val calls : app -> int
(** Number of protected calls made so far. *)

val set_time_limit : app -> int -> unit
(** Per-invocation CPU budget in cycles (paper section 4.5.2). *)

val emit_stubs : app -> Asm.program -> Asm.assembled
(** Assemble a program into the application's stub region.
    @raise Invalid_argument when the region is exhausted. *)

(** {2 Loading extensions} *)

val load : app -> Image.t -> ext
(** Load an image through the verifying loader into the extension
    segment, with its own stack and heap, and hand every area to the
    extension (PPL 1 marking at the paper's measured cost, or the
    extension key followed by an audit). *)

val resolve : app -> ext -> string -> int
(** Resolve an extension {e function} to a generated entry stub
    (Prepare or the wrpkru stub), cached per function.  Data symbols
    must use {!dlsym_data} — only function pointers are "massaged"
    (paper section 4.5.1). *)

val dlsym_data : ext -> string -> int
(** Plain dlsym for data symbols inside the extension. *)

val xmalloc : ext -> int -> int
(** Allocate from the extension's heap (writable by the extension).
    @raise Invalid_argument on a negative size or when exhausted. *)

(** {2 Calling} *)

val call : app -> prepare:int -> arg:int -> (int * int, call_error) result
(** Protected extension call through an entry stub from {!resolve},
    under the watchdog.  [Ok (result, cycles)] on completion; a
    timeout also delivers SIGALRM to the task, and under [Mpk] any
    aborted call restores PKRU to 0. *)

val call_unprotected : app -> fn:int -> arg:int -> (int * int, call_error) result
(** Baseline: a plain local call in the application's own domain. *)

val phase_bounds : (string * int) list -> int option list
(** The six boundaries of one protected call — setup, call, body,
    return, restore, done — recovered from the [Mark] stamps it left
    ({!Cpu.marks_since} the call's start); [None] for a boundary it never
    reached.  The spans between them are the Table 1 phases. *)

(** {2 Exposing memory} *)

val expose_range : app -> addr:int -> len:int -> unit
(** Make pages accessible to extensions (set_range to PPL 1, or
    set_key to 0). *)

val hide_range : app -> addr:int -> len:int -> unit
(** Hide pages again (PPL 0, or the application key). *)

(** {2 Memory access helpers (kernel-side, for tests and services)} *)

val peek_u32 : app -> int -> int

val poke_u32 : app -> int -> int -> unit

val peek_bytes : app -> int -> int -> Bytes.t

val poke_bytes : app -> int -> Bytes.t -> unit
