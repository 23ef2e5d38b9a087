(* Protected memory service (section 6, on-going work): use a
   dedicated segment whose limit exactly bounds a memory region, so
   that wild pointers or random software errors cannot corrupt it —
   any access outside the region fails the segment-limit check in
   hardware.  Accesses go through an ES-override against the guard
   selector. *)

module Sel = X86.Selector
module Desc = X86.Descriptor
module DT = X86.Desc_table
module P = X86.Privilege

type t = {
  app : Pbackend.app;
  selector : int; (* encoded *)
  base : int; (* linear address of the guarded region *)
  size : int;
  ldt_index : int;
}

type error = Out_of_bounds of X86.Fault.t

(* Create a guarded region of [size] bytes inside the application.
   The descriptor install is a kernel-side operation (descriptor
   tables are only writable at ring 0); the paper envisions it behind
   a system call, here the kernel performs it directly. *)
let create (app : Pbackend.app) ~size =
  let task = Pbackend.task app in
  let area =
    Address_space.mmap task.Task.asp
      ~len:(X86.Layout.page_align_up size)
      ~perms:Vm_area.rw ~label:"guarded" Vm_area.Data
  in
  Address_space.populate task.Task.asp area;
  let base = area.Vm_area.va_start in
  let ldt_index =
    DT.alloc task.Task.ldt (Desc.data ~base ~limit:(size - 1) ~dpl:P.R2 ())
  in
  let selector = Sel.encode (Sel.make ~table:Sel.Ldt ~rpl:P.R2 ldt_index) in
  { app; selector; base; size; ldt_index }

let base t = t.base

let size t = t.size

let selector t = t.selector

(* Store through the guard segment: offsets within [0, size) succeed;
   anything else — including wild pointers derived from corrupted
   state — faults in hardware before touching memory. *)
let store t ~offset ~value =
  let rt = Pbackend.runtime t.app in
  let o = Runtime.guard_store rt ~selector:t.selector ~offset ~value in
  match o.Runtime.result with
  | Kernel.Completed -> Ok ()
  | Kernel.Faulted f -> Error (Out_of_bounds f)
  | Kernel.Timed_out _ | Kernel.Out_of_fuel ->
      invalid_arg "Guard.store: unexpected outcome"

let load t ~offset =
  let rt = Pbackend.runtime t.app in
  let o = Runtime.guard_load rt ~selector:t.selector ~offset in
  match o.Runtime.result with
  | Kernel.Completed -> Ok o.Runtime.value
  | Kernel.Faulted f -> Error (Out_of_bounds f)
  | Kernel.Timed_out _ | Kernel.Out_of_fuel ->
      invalid_arg "Guard.load: unexpected outcome"

let destroy t = DT.clear (Pbackend.task t.app).Task.ldt t.ldt_index
