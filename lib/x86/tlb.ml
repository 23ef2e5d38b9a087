(* Translation lookaside buffer.  Modelled after the Pentium data TLB:
   64 entries, 4-way set associative collapsed here to direct-mapped on
   the low bits of the VPN with one victim slot per set, which is close
   enough for cycle accounting.  The TLB is flushed whenever CR3 is
   loaded (task switch), which is where the paper's IPC baselines pay
   their page-table-switch cost.

   Hits, misses and flushes are counted once, in the x86.tlb.*
   counters of the sink current while the owning world runs; the TLB
   itself keeps no tallies. *)

type entry = {
  e_vpn : int;
  e_pfn : int;
  e_user : bool;
  e_writable : bool;
  e_key : int;
      (* protection key cached with the translation, so key checks on
         hits cost no extra page walk — PKRU itself is checked at
         access time, never cached *)
}

type t = { slots : entry option array; sets : int }

let c_hits = Obs.Counters.counter "x86.tlb.hits"

let c_misses = Obs.Counters.counter "x86.tlb.misses"

let c_flushes = Obs.Counters.counter "x86.tlb.flushes"

let create ?(sets = 64) () =
  if sets <= 0 then invalid_arg "Tlb.create: sets";
  { slots = Array.make sets None; sets }

(* Mask the sign bit before reducing: a corrupt (negative) VPN must
   index like any other bad VPN and miss, not crash the simulator. *)
let slot t vpn = (vpn land max_int) mod t.sets

let lookup t ~vpn =
  match t.slots.(slot t vpn) with
  | Some e when e.e_vpn = vpn ->
      Obs.Counters.incr c_hits;
      Some e
  | Some _ | None ->
      Obs.Counters.incr c_misses;
      None

(* Counter-free probe for the block engine's fast fetch path: the
   caller batches the hits it observes (note_hits) and falls back to
   the counting [lookup]-based pipeline on a miss, so the hit/miss
   counts stay exactly what a per-instruction [lookup] would have
   produced. *)
let peek t ~vpn =
  match t.slots.(slot t vpn) with
  | Some e when e.e_vpn = vpn -> Some e
  | Some _ | None -> None

let note_hits n = if n > 0 then Obs.Counters.add c_hits n

let insert ?(key = 0) t ~vpn ~pfn ~user ~writable =
  t.slots.(slot t vpn) <-
    Some { e_vpn = vpn; e_pfn = pfn; e_user = user; e_writable = writable; e_key = key }

let invalidate t ~vpn =
  match t.slots.(slot t vpn) with
  | Some e when e.e_vpn = vpn -> t.slots.(slot t vpn) <- None
  | Some _ | None -> ()

let flush t =
  Array.fill t.slots 0 t.sets None;
  Obs.Counters.incr c_flushes
