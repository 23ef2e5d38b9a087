(* Thin argv dispatcher over {!Bench_runs}: run with no arguments for
   everything, or with a subset of: table1 table2 table3 figure7 micro
   ipc ablation sfi backends audit fastpath soundness wcet, plus the
   named-only parallel and timeline.  Each subcommand prints its table
   and writes a BENCH_<name>.json artifact in the current directory. *)

let () = Bench_runs.run_main (List.tl (Array.to_list Sys.argv))
