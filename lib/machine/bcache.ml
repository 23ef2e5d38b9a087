(* Basic-block translation cache.

   Entries are keyed on the *linear* address of the block's first
   instruction (code-segment base + EIP), so blocks of different
   segments never collide even when their EIP ranges overlap.  The
   cache carries the [Code_mem] generation and the CPU's cache epoch
   it was filled under; [validate] drops every entry when either moves
   (code stores / remove_range, CR3 loads).  Segment reloads are
   handled per entry by the engine (each block records the hidden
   descriptor cache it was translated under), because CS reloads
   happen on every far transfer and eager clearing would defeat the
   cache.

   Every lookup, chained transfer, translation and invalidation is
   counted once, in the [bcache.*] counters of the current sink; the
   cache keeps no tallies of its own.  A lookup is a [bcache.hit], a
   [bcache.miss] or (through a memoized link, no table probe) a
   [bcache.chain], so lookups = hit + miss + chain and hits = hit +
   chain.  These are *engine meta-counters*, not architectural events:
   the interpreter never bumps them, so the interp-vs-blocks
   differential oracle in test_fastpath filters the [bcache.] prefix
   out of its counter snapshots before comparing. *)

let c_hit =
  Obs.Counters.counter ~help:"Basic-block cache lookups that hit" "bcache.hit"

let c_miss =
  Obs.Counters.counter ~help:"Basic-block cache lookups that missed"
    "bcache.miss"

let c_translate =
  Obs.Counters.counter
    ~help:"Basic-block cache insertions (translated blocks and no-block markers)"
    "bcache.translate"

let c_invalidate =
  Obs.Counters.counter
    ~help:"Whole-cache invalidations (code store, epoch move or explicit clear)"
    "bcache.invalidate"

let c_chain =
  Obs.Counters.counter
    ~help:"Block-to-block chained transfers resolved without a table probe"
    "bcache.chain"

type 'a t = {
  table : (int, 'a) Hashtbl.t;
  mutable code_gen : int;
  mutable cpu_epoch : int;
}

let create () = { table = Hashtbl.create 1024; code_gen = -1; cpu_epoch = -1 }

(* Drop all entries if the code store or the CPU's translation epoch
   moved since the cache was last filled. *)
let validate t ~code_gen ~cpu_epoch =
  if t.code_gen <> code_gen || t.cpu_epoch <> cpu_epoch then begin
    if Hashtbl.length t.table > 0 then Obs.Counters.incr c_invalidate;
    Hashtbl.reset t.table;
    t.code_gen <- code_gen;
    t.cpu_epoch <- cpu_epoch
  end

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some _ as e ->
      Obs.Counters.incr c_hit;
      e
  | None ->
      Obs.Counters.incr c_miss;
      None

(* [n] block-to-block chained transfers resolved through memoized
   links (no table probe); each is a lookup that hit.  Batched: the
   engine tallies locally and credits once per dispatch. *)
let note_hits n = Obs.Counters.add c_chain n

let add t key v =
  Obs.Counters.incr c_translate;
  Hashtbl.replace t.table key v

let mem t key = Hashtbl.mem t.table key

let clear t =
  if Hashtbl.length t.table > 0 then Obs.Counters.incr c_invalidate;
  Hashtbl.reset t.table

let size t = Hashtbl.length t.table
