(* Auditor driver: segment registry + incremental re-audit.

   The registry and generation cache live in a [Kernel.ext_state] slot
   on the kernel itself rather than in a process-global table keyed by
   [Kernel.id]: the kern layer stays ignorant of the auditor (it only
   stores an opaque extensible-variant value), per-world state cannot
   be observed or corrupted by other worlds running on other domains,
   and dropping a world drops its audit state with it — long fleet
   runs no longer grow an orphaned registry.  [forget] additionally
   clears the slot eagerly for explicit world teardown. *)

module S = Audit.Snapshot
module DT = X86.Desc_table

type seg = {
  sg_name : string;
  sg_cs : int;
  sg_ds : int;
  sg_base : int;
  sg_size : int;
  mutable sg_gates : (int * int) list;
  (* Union of the verifier-proved far-target selector sets of every
     module loaded into the segment; [None] once any module's far
     transfers are not statically known (sticky). *)
  mutable sg_far : int list option;
  mutable sg_dead : bool;
}

(* An MPK compartment: the backend's own record of where its WRPKRU
   stubs live and which rights values they write, ground truth for the
   INV-23 placement check. *)
type mdom = {
  dm_pid : int;
  dm_name : string;
  dm_stub_base : int;
  dm_stub_end : int;
  dm_app_key : int;
  dm_ext_key : int;
  dm_rights : int list;
}

type state = {
  mutable st_segs : seg list;
  mutable st_mpk : mdom list;
  (* Generation at which this kernel last passed (or warned through)
     an audit; [None] until the first audit. *)
  mutable st_last_gen : int option;
}

type Kernel.ext_state += Audit_state of state

let slot = "paudit"

let state_of kernel =
  match Kernel.ext_state kernel slot with
  | Some (Audit_state st) -> st
  | _ ->
      let st = { st_segs = []; st_mpk = []; st_last_gen = None } in
      Kernel.set_ext_state kernel slot (Audit_state st);
      st

let forget kernel = Kernel.clear_ext_state kernel slot

let registered kernel =
  match Kernel.ext_state kernel slot with
  | Some (Audit_state _) -> true
  | _ -> false

let register_segment kernel ~name ~cs ~ds ~base ~size =
  let st = state_of kernel in
  st.st_segs <-
    {
      sg_name = name;
      sg_cs = cs;
      sg_ds = ds;
      sg_base = base;
      sg_size = size;
      sg_gates = [];
      sg_far = Some [];
      sg_dead = false;
    }
    :: st.st_segs

let register_mpk_domain kernel ~pid ~name ~stub_base ~stub_end ~app_key
    ~ext_key ~rights =
  let st = state_of kernel in
  st.st_mpk <-
    {
      dm_pid = pid;
      dm_name = name;
      dm_stub_base = stub_base;
      dm_stub_end = stub_end;
      dm_app_key = app_key;
      dm_ext_key = ext_key;
      dm_rights = List.sort_uniq compare rights;
    }
    :: st.st_mpk

let mpk_domains kernel =
  List.rev_map
    (fun dm ->
      {
        S.md_pid = dm.dm_pid;
        md_name = dm.dm_name;
        md_stub_base = dm.dm_stub_base;
        md_stub_end = dm.dm_stub_end;
        md_app_key = dm.dm_app_key;
        md_ext_key = dm.dm_ext_key;
        md_rights = dm.dm_rights;
      })
    (state_of kernel).st_mpk

let find_seg kernel ~cs =
  List.find_opt (fun sg -> sg.sg_cs = cs) (state_of kernel).st_segs

let add_segment_gate kernel ~cs ~slot ~entry =
  match find_seg kernel ~cs with
  | Some sg -> sg.sg_gates <- (slot, entry) :: sg.sg_gates
  | None -> invalid_arg "Paudit.add_segment_gate: unregistered segment"

let note_far_targets kernel ~cs far =
  match find_seg kernel ~cs with
  | Some sg ->
      sg.sg_far <-
        (match (sg.sg_far, far) with
        | Some a, Some b -> Some (List.sort_uniq compare (a @ b))
        | _ -> None)
  | None -> invalid_arg "Paudit.note_far_targets: unregistered segment"

let mark_segment_dead kernel ~cs =
  match find_seg kernel ~cs with
  | Some sg -> sg.sg_dead <- true
  | None -> invalid_arg "Paudit.mark_segment_dead: unregistered segment"

let segments kernel =
  List.rev_map
    (fun sg ->
      {
        S.rs_name = sg.sg_name;
        rs_cs = sg.sg_cs;
        rs_ds = sg.sg_ds;
        rs_base = sg.sg_base;
        rs_size = sg.sg_size;
        rs_gates = sg.sg_gates;
        rs_far_targets = sg.sg_far;
        rs_dead = sg.sg_dead;
      })
    (state_of kernel).st_segs

let generation kernel =
  let tasks = Kernel.tasks kernel in
  let dt_writes =
    DT.writes (Kernel.gdt kernel)
    + DT.writes (Kernel.idt kernel)
    + List.fold_left (fun acc tk -> acc + DT.writes tk.Task.ldt) 0 tasks
  in
  let pg_gens =
    X86.Paging.generation (Kernel.boot_directory kernel)
    + List.fold_left
        (fun acc tk ->
          acc + X86.Paging.generation (Address_space.directory tk.Task.asp))
        0 tasks
  in
  let registry_shape =
    List.fold_left
      (fun acc sg ->
        acc + 1 + List.length sg.sg_gates
        + (match sg.sg_far with None -> 1 | Some sels -> List.length sels)
        + if sg.sg_dead then 1 else 0)
      0 (state_of kernel).st_segs
    + List.length (state_of kernel).st_mpk
  in
  (* Code-memory mutations matter too: the WRPKRU placement check
     (INV-23) scans the instruction store, so a freshly stored rogue
     wrpkru must invalidate the incremental-audit cache. *)
  let code_gen = Code_mem.generation (Kernel.code kernel) in
  dt_writes + pg_gens + code_gen + List.length tasks + registry_shape

let capture kernel =
  S.capture ~segments:(segments kernel) ~mpk_domains:(mpk_domains kernel)
    ~generation:(generation kernel) kernel

let c_skipped = Obs.Counters.counter "audit.skipped"

let force_audit ~context kernel =
  let r =
    Audit.Engine.enforce ?policy:(Kernel.policy kernel).audit ~context
      (capture kernel)
  in
  (state_of kernel).st_last_gen <- Some r.Audit.Engine.rp_generation;
  r

let maybe_audit ~context kernel =
  if Audit.Engine.effective_policy (Kernel.policy kernel).audit <> Audit.Engine.Off
  then
    let gen = generation kernel in
    match (state_of kernel).st_last_gen with
    | Some g when g = gen -> Obs.Counters.incr c_skipped
    | _ -> ignore (force_audit ~context kernel)
