(** Load-time extension verifier.

    Static analysis over a raw [Asm.program] (before assembly, before
    any loader-generated stubs): control-flow decoding into basic
    blocks, a catalogue of instruction lints, and a fixpoint abstract
    interpretation over a reduced product of saturated intervals
    ({!Vdomain}) and a provenance/taint lattice ({!Vtaint}) that bounds
    every memory operand's effective address against the extension's
    region.  Internal [call] targets are analysed once per routine and
    condensed into {!Vsum} summaries applied at their call sites.
    Loaders pass their {!verify} call to the one admission gate,
    {!admit}, under their world's policies;
    the SFI rewriter uses {!proved_instrs} to elide guards the analysis
    proves redundant ([Sfi.Verified]). *)

(** {1 Reports} *)

type check =
  | Cfg  (** targets resolve, labels unique, no fall-off-the-end *)
  | Bounds  (** effective addresses vs the extension region *)
  | Privileged  (** sreg writes, far/interrupt returns, [int], [hlt] *)
  | Indirect  (** computed near/far transfers, unvetted selectors *)
  | Stack  (** ESP back at entry depth on every [ret] *)
  | Termination  (** back edges, when termination is required *)

type severity = Info | Error

type diag = {
  d_check : check;
  d_severity : severity;
  d_index : int option;  (** instruction index, when attributable *)
  d_msg : string;
}

type access_class =
  | Proved  (** whole access provably inside the region *)
  | Stack_rel  (** stack-relative through SS: confined by SS *)
  | Runtime  (** not statically bounded; hardware checks it at run time *)
  | Oob  (** provably outside the region: always faults *)

type access = {
  a_index : int;
  a_write : bool;
  a_size : int;
  a_ea : Vdomain.t;  (** abstract effective address *)
  a_taint : Vtaint.t;  (** provenance of the effective address *)
  a_ss : bool;  (** goes through SS (stack-segment default rule) *)
  a_class : access_class;
}

type report = {
  r_name : string;
  r_instrs : int;
  r_blocks : int;
  r_diags : diag list;
  r_accesses : access list;
      (** one entry per reachable (instruction, direction, size,
          segment) memory access, joined over all paths and routines;
          accesses in unreachable code are excluded *)
  r_back_edges : int;
  r_unreachable : int;
  r_far_targets : int list option;
      (** [Some sels] when every reachable far transfer resolves to a
          statically known selector (the set the loader can feed into
          the reachability audit); [None] when at least one far-call
          operand — or a CFG-defeating indirect near transfer — is not
          static *)
  r_bounds : Vcost.bounds;
      (** certified worst-case cycle / stack-depth / instruction
          bounds, joined over the exported entry routines with callees
          included through their {!Vsum} bands; see {!Vcost} for the
          cost contract (architectural cycles, TLB walks and fault
          delivery excluded) *)
}

val ok : report -> bool
(** No [Error]-severity diagnostics. *)

val errors : report -> diag list

val check_name : check -> string

val class_name : access_class -> string

val count_class : report -> access_class -> int

val pp_diag : Format.formatter -> diag -> unit

val pp_report : Format.formatter -> report -> unit

val report_json : report -> Obs.Json.t
(** Full report including the per-access classification table
    (index, class, interval, taint) and the static far-target set. *)

(** {1 Analysis} *)

val verify :
  ?org:int ->
  ?entries:string list ->
  ?externs:(string -> bool) ->
  ?region:int * int ->
  ?arg:int * int ->
  ?allowed_far:(int -> bool) ->
  ?allowed_wrpkru:(int -> bool) ->
  ?allow_far_indirect:bool ->
  ?allow_near_indirect:bool ->
  ?lint_privileged:bool ->
  ?require_termination:bool ->
  ?check_stack:bool ->
  ?cost_params:Cycles.params ->
  name:string ->
  Asm.program ->
  report
(** [verify ~name program] analyses [program] and returns the report.

    - [org]: segment offset the text will be placed at (default 0);
      absolute branch targets are resolved against it.
    - [entries]: exported symbols — analysis entry points, each with a
      fresh stack frame and the [arg] interval at [esp+4].  When empty
      (or nothing resolves), instruction 0 is the entry.  Reachability
      is computed from these roots only; internal [call] targets found
      in reachable code are analysed as separate routines with
      unconstrained entry frames and summarised ({!Vsum}).
    - [externs]: symbols the loader will resolve (imports, data/bss,
      kernel services); calls/jumps to them leave the program.
    - [region]: half-open [lo, hi) byte range memory accesses are
      bounded against (default: the full 32-bit space).
    - [arg]: interval of the argument word at [esp+4] on entry (tagged
      region-derived in the taint domain).
    - [allowed_far]: vetted far-call selectors (kernel gate, services).
      Far-call operands the abstract interpretation resolves to a
      constant are checked against this table statically; an unvetted
      static selector is an error even when [allow_far_indirect].
    - [allowed_wrpkru]: protection-key rights values the backend
      assigned to its own entry/exit stubs.  A [wrpkru] whose operand
      is a constant immediate in this set is reported as info;
      any other [wrpkru] — disallowed value or non-constant operand —
      is a [Privileged] error, independent of [lint_privileged]
      (default: reject all, the right profile for extension images).
    - [allow_far_indirect] (default true): [lcall *o] with a
      non-static operand is vetted by the hardware gate at run time.
    - [allow_near_indirect] (default false): [jmp *o]/[call *o] defeat
      the CFG and are errors unless the caller opts in.
    - [lint_privileged] (default true): flag sreg writes, [lret],
      [int], [iret], [hlt] and kernel upcalls.
    - [require_termination] (default false): any CFG back edge is an
      error (BPF-derived filters must terminate).
    - [check_stack] (default true): an unbalanced ESP at [ret], or a
      store that may overwrite a return-address slot, is an error;
      when false these are reported as info only (trusted kernel
      modules with cross-routine non-local exits).
    - [cost_params] (default {!Cycles.pentium}): the cycle model the
      WCET analysis prices against; loaders pass the booted CPU's own
      parameters so static bounds and dynamic charges agree. *)

(** {1 Policy and enforcement} *)

type policy = Ppolicy.t = Off | Warn | Reject

val policy : unit -> policy
(** Process-default load-time verification policy, default [Warn];
    atomic, so safe to read from any domain.  [Pconfig] seeds it from
    [PALLADIUM_VERIFY]. *)

val set_policy : policy -> unit

val policy_of_string : string -> policy option
(** ["off"], ["warn"] or ["reject"], case-insensitive. *)

val policy_name : policy -> string

val effective_policy : policy option -> policy
(** The policy for one world: its override
    ([(Kernel.policy kernel).verify]) when set, else the process
    default as it stands now. *)

exception Rejected of string * report
(** [(image name, report)] — raised by {!admit} under [Reject]. *)

val admit :
  policy:policy option ->
  budget:Vcost.policy option ->
  budget_cycles:int ->
  mechanism:string ->
  (unit -> report) ->
  report option
(** The loaders' one admission gate.  [admit ~policy ~budget
    ~budget_cycles ~mechanism run] resolves both policies against their
    process defaults ({!effective_policy}, [Vcost.effective_policy]).
    When both are [Off] it returns [None] without running [run].
    Otherwise it runs the verifier ([run ()]) and applies the verify
    policy to the report: [Off] ignores it, [Warn] prints its error
    diagnostics to stderr, [Reject] raises {!Rejected} when it is not
    {!ok}; outcomes are counted under [verify.*].  Then, under an
    active budget policy, [Vcost.enforce] holds the report's certified
    bounds to [budget_cycles] (counted under [budget.*]; [Reject]
    raises [Vcost.Over_budget]).  Returns the report. *)

(** {1 SFI integration} *)

val proved_instrs :
  ?entries:string list ->
  ?externs:(string -> bool) ->
  ?arg:int * int ->
  ?trust_stack:bool ->
  region:int * int ->
  Asm.program ->
  int ->
  bool
(** Predicate on instruction indices (counting [Asm.I] items): true
    iff every memory access of that instruction is provably inside
    [region], making an SFI guard redundant.  With [trust_stack]
    (default false), [Stack_rel] accesses — stack-relative *and*
    through SS, by construction — also count as elidable: they are
    confined by the stack segment's limit, the same trust SFI already
    extends to the implicit push/pop traffic it leaves unguarded.
    Conservatively false for everything when the CFG does not decode
    or the program contains indirect near control flow. *)

val sfi_check :
  ?entries:string list ->
  ?externs:(string -> bool) ->
  ?arg:int * int ->
  region:int * int ->
  Asm.program ->
  (unit, string) result
(** The SFI containment property: every store is stack-relative
    through SS or has an address provably inside [region]
    (address-in-region, matching the runtime coercion's guarantee).
    [Error] names the first offending instruction. *)
