(* Host self-time sampler of the traced run: SIGPROF every millisecond
   of process CPU time, each sample's call stack bucketed by the
   library of its innermost repository frame.  Frames outside the
   repository (stdlib, runtime) are charged to the repository code
   that called them; a sample with no repository frame at all is
   charged to "runtime".  Nothing in the timed path lives in this
   file, so its own frames (the handler) are skipped by file name. *)

let buckets = [| "x86"; "machine"; "kern"; "core"; "obs"; "bpf"; "runtime"; "bench"; "other" |]

let counts = Array.make (Array.length buckets) 0

let index name =
  let rec go i = if buckets.(i) = name then i else go (i + 1) in
  go 0

let runtime = index "runtime"

let bucket_of_file f =
  match String.split_on_char '/' f with
  | "lib" :: dir :: _ -> (
      match dir with
      | "x86" | "machine" | "kern" | "core" | "obs" | "bpf" -> Some (index dir)
      | _ -> Some (index "other"))
  | "perfbench" :: [ "sampler.ml" ] -> None
  | "perfbench" :: _ -> Some (index "bench")
  | _ -> None

let file_of slot =
  match Printexc.Slot.location slot with
  | Some l -> l.Printexc.filename
  | None -> ""

let sample _ =
  let b =
    match Printexc.backtrace_slots (Printexc.get_callstack 64) with
    | None -> runtime
    | Some slots ->
        let rec first i =
          if i >= Array.length slots then runtime
          else
            match bucket_of_file (file_of slots.(i)) with
            | Some b -> b
            | None -> first (i + 1)
        in
        first 0
  in
  counts.(b) <- counts.(b) + 1

let interval = { Unix.it_interval = 0.001; it_value = 0.001 }

let start () =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle sample);
  ignore (Unix.setitimer Unix.ITIMER_PROF interval)

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

(* (bucket, share of samples), and the sample count. *)
let shares () =
  let total = Array.fold_left ( + ) 0 counts in
  ( Array.to_list
      (Array.mapi
         (fun i name ->
           (name, if total = 0 then 0.0 else float counts.(i) /. float total))
         buckets),
    total )
