(* A tour of every containment mechanism: each scenario loads a
   deliberately misbehaving extension and shows the hardware (or the
   watchdog) stopping it while the host survives.

       dune exec examples/fault_injection.exe *)

let scenario name f =
  Printf.printf "\n--- %s ---\n" name;
  f ()

let () =
  let world = Palladium.boot () in
  let app = Palladium.create_app world ~name:"host" in
  let task = Pbackend.task app in

  scenario "1. extension writes the application's private data" (fun () ->
      let rogue = Pbackend.load app Ulib.rogue_write_image in
      let poke = Pbackend.resolve app rogue "poke" in
      let target =
        (List.find
           (fun (a : Vm_area.t) -> a.Vm_area.label = "palladium.data")
           (Address_space.areas task.Task.asp))
          .Vm_area.va_start
      in
      match Pbackend.call app ~prepare:poke ~arg:target with
      | Error (Pbackend.Protection_fault f) ->
          Fmt.pr "blocked by the U/S page check: %a\n" X86.Fault.pp f
      | _ -> print_endline "!! not blocked");

  scenario "2. extension overwrites the (read-only, PPL 1) GOT" (fun () ->
      (* give the rogue a GOT to attack: a client with imports *)
      ignore
        (Dyld.dlopen ~kernel:(Pbackend.kernel app) ~task
           ~env:(Pbackend.env app) Ulib.libc_image);
      let client =
        Pbackend.load app Ulib.strlen_client_image
      in
      let got =
        match client.Pbackend.x_handle.Dyld.h_got_base with
        | Some g -> g
        | None -> failwith "client has no GOT"
      in
      (* the loader bound the GOT eagerly and write-protected it *)
      let rogue = Pbackend.load app Ulib.rogue_write_image in
      let poke = Pbackend.resolve app rogue "poke" in
      match Pbackend.call app ~prepare:poke ~arg:got with
      | Error (Pbackend.Protection_fault f) ->
          Fmt.pr "blocked by the read-only page check: %a\n" X86.Fault.pp f
      | _ -> print_endline "!! not blocked");

  scenario "3. extension loops forever" (fun () ->
      Pbackend.set_time_limit app 50_000;
      let rogue = Pbackend.load app Ulib.rogue_loop_image in
      let spin = Pbackend.resolve app rogue "spin" in
      match Pbackend.call app ~prepare:spin ~arg:0 with
      | Error (Pbackend.Time_limit_exceeded e) ->
          Printf.printf
            "aborted by the per-invocation CPU limit: used %d > %d cycles\n"
            e.Watchdog.wd_used e.Watchdog.wd_limit
      | _ -> print_endline "!! not stopped");

  scenario "4. extension tries a direct system call" (fun () ->
      let rogue = Pbackend.load app Ulib.rogue_syscall_image in
      let try_sys = Pbackend.resolve app rogue "try_syscall" in
      match Pbackend.call app ~prepare:try_sys ~arg:0 with
      | Ok (v, _) ->
          let v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v in
          Printf.printf
            "kernel rejected it: getpid returned %d (EPERM, the taskSPL check)\n"
            v
      | Error e -> Fmt.pr "unexpected: %a\n" Pbackend.pp_call_error e);

  scenario "5. kernel extension overruns its segment" (fun () ->
      let seg = Palladium.create_kernel_segment world in
      ignore (Kernel_ext.insmod seg Ulib.rogue_read_image);
      let ktask = Kernel.create_task (Palladium.kernel world) ~name:"k" in
      match
        Kernel_ext.invoke ~task:ktask seg ~name:"rogueread$peek"
          ~arg:(Kernel_ext.seg_size seg + 0x100000)
      with
      | Error (Kernel_ext.Aborted_fault f) ->
          Fmt.pr "blocked by the segment-limit check and aborted: %a\n"
            X86.Fault.pp f;
          Printf.printf "segment now dead: %b\n" (Kernel_ext.is_dead seg)
      | _ -> print_endline "!! not blocked");

  scenario "6. wild pointer vs the protected memory service" (fun () ->
      let guard = Guard.create app ~size:256 in
      (match Guard.store guard ~offset:16 ~value:123 with
      | Ok () -> print_endline "in-bounds store succeeded"
      | Error _ -> print_endline "!! in-bounds store failed");
      match Guard.store guard ~offset:5000 ~value:66 with
      | Error (Guard.Out_of_bounds f) ->
          Fmt.pr "wild store blocked by the guard segment limit: %a\n"
            X86.Fault.pp f
      | Ok () -> print_endline "!! wild store succeeded");

  Printf.printf "\ntotal SIGSEGVs delivered to the host application: %d\n"
    (List.length (Signal.delivered task.Task.signals));
  print_endline "host application still alive and well."
