(* Descriptor tables: the GDT (shared by all tasks) and per-task LDTs.
   Entry 0 of the GDT is the null descriptor and can never be used.
   Only ring-0 code may modify descriptor tables; the kernel substrate
   enforces that by construction (it is the only holder of the table). *)

type t = {
  name : string;
  is_gdt : bool;
  mutable entries : Descriptor.t option array;
  mutable writes : int;
      (* descriptor installs: the audit's change stamp, not a statistic *)
}

let create ?(capacity = 32) ~name ~is_gdt () =
  if capacity < 1 || capacity > 8192 then
    invalid_arg "Desc_table.create: capacity";
  { name; is_gdt; entries = Array.make capacity None; writes = 0 }

(* Counter family per table kind: the shared GDT and IDT are singular
   enough to deserve their own series; every per-task LDT folds into
   one. *)
let kind_tag t =
  if t.is_gdt then "gdt" else if t.name = "idt" then "idt" else "ldt"

(* No memo table here: interning is already get-or-create (and
   mutex-guarded, so tables mutated by worlds on different domains
   don't race on a shared cache).  Mutations are rare — loader and
   boot paths — so the lookup cost is irrelevant. *)
let mutation_counter t action =
  Obs.Counters.counter (Printf.sprintf "x86.%s.%s" (kind_tag t) action)

let note_mutation t slot action =
  Obs.Counters.incr (mutation_counter t action);
  if Obs.Trace.on () then
    Obs.Trace.emit (Obs.Trace.Desc_mutation { table = t.name; slot; action })

let gdt ?capacity () = create ?capacity ~name:"gdt" ~is_gdt:true ()

let ldt ?capacity name = create ?capacity ~name ~is_gdt:false ()

let is_gdt t = t.is_gdt

let capacity t = Array.length t.entries

let grow t wanted =
  let cap = max (wanted + 1) (2 * Array.length t.entries) in
  let cap = min cap 8192 in
  if cap <= Array.length t.entries then
    invalid_arg "Desc_table: table full (8192 entries)";
  let entries = Array.make cap None in
  Array.blit t.entries 0 entries 0 (Array.length t.entries);
  t.entries <- entries

let install t index desc =
  if index < 0 then invalid_arg "Desc_table.set: negative index";
  if index >= Array.length t.entries then grow t index;
  t.entries.(index) <- Some desc;
  t.writes <- t.writes + 1

let unsafe_set t index desc =
  install t index desc;
  note_mutation t index "set"

let set t index desc =
  if index <= 0 && t.is_gdt then
    invalid_arg "Desc_table.set: GDT entry 0 is the null descriptor";
  unsafe_set t index desc

let clear t index =
  if index >= 0 && index < Array.length t.entries then begin
    t.entries.(index) <- None;
    t.writes <- t.writes + 1;
    note_mutation t index "clear"
  end

(* Allocate the lowest free slot.  Slot 0 is never handed out: the GDT
   null descriptor is architectural, and LDT slot 0 is kept empty so a
   cleared segment register (selector 0, TI=1) can never name a live
   descriptor. *)
let alloc t desc =
  let rec find i =
    if i >= Array.length t.entries then (
      grow t i;
      i)
    else match t.entries.(i) with None -> i | Some _ -> find (i + 1)
  in
  let index = find 1 in
  install t index desc;
  note_mutation t index "alloc";
  index

let get t index =
  if index < 0 || index >= Array.length t.entries then None else t.entries.(index)

(* Descriptor fetch as performed by a segment-register load: faults on
   the null selector and on empty slots. *)
let lookup t selector =
  if Selector.is_null selector then Fault.raise_ Fault.Null_selector;
  match get t (Selector.index selector) with
  | None -> Fault.raise_ (Fault.Descriptor_missing { selector })
  | Some d ->
      if not d.Descriptor.present then
        Fault.raise_ (Fault.Segment_not_present { selector });
      d

let writes t = t.writes

let iter t f =
  Array.iteri (fun i d -> match d with Some d -> f i d | None -> ()) t.entries

let pp ppf t =
  Fmt.pf ppf "@[<v>%s:" t.name;
  iter t (fun i d -> Fmt.pf ppf "@,  [%d] %a" i Descriptor.pp d);
  Fmt.pf ppf "@]"

(* A [view] bundles the GDT with the current task's LDT so the MMU can
   resolve any selector. *)
type view = { vgdt : t; vldt : t option }

let view ?ldt gdt = { vgdt = gdt; vldt = ldt }

let resolve v selector =
  match Selector.table selector with
  | Selector.Gdt -> lookup v.vgdt selector
  | Selector.Ldt -> (
      match v.vldt with
      | None -> Fault.raise_ (Fault.Descriptor_missing { selector })
      | Some l -> lookup l selector)
