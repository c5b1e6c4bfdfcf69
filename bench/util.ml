(** Shared helpers for the experiment harness.

    Every printed table is mirrored into {!Simurgh_obs.Report} so that a
    [--json DIR] run exports the same numbers machine-readably; when no
    report is active the mirroring is a no-op. *)

module Report = Simurgh_obs.Report

let thread_counts = [ 1; 2; 4; 7; 10 ]

let last_header = ref ""

let header title =
  last_header := title;
  Printf.printf "\n=== %s ===\n" title

let row_header name = Printf.printf "%-18s" name

let print_series fmt values =
  List.iter (fun v -> Printf.printf fmt v) values;
  print_newline ()

(** Print the thread-count heading under the last {!header} and open a
    report table of the same title with one [t<n>] column per count. *)
let print_thread_header counts =
  Report.table ~title:!last_header
    ~columns:(List.map (Printf.sprintf "t%d") counts);
  row_header "threads";
  print_series " %9d" counts

(** Print one labeled row and mirror it into the current report table. *)
let series name fmt values =
  row_header name;
  print_series fmt values;
  Report.row name values

(** ops per thread scaled by the experiment scale factor. *)
let scaled ~scale base = max 64 (int_of_float (float_of_int base *. scale))

let kops v = v /. 1000.0
let mops v = v /. 1.0e6

let pp_breakdown name (app, copy, fs) =
  Report.ensure_table ~title:"breakdown (% of execution time)"
    ~columns:[ "app%"; "copy%"; "fs%" ];
  Report.row name [ 100.0 *. app; 100.0 *. copy; 100.0 *. fs ];
  Printf.printf "%-12s  app %5.1f%%   data-copy %5.1f%%   file-system %5.1f%%\n"
    name (100.0 *. app) (100.0 *. copy) (100.0 *. fs)
