(** Fig. 6: read bandwidth of the original (cache-hot) vs. adapted
    (pseudo-random, cache-cold) FxMark DRBL benchmark for Simurgh and
    NOVA, against the NVMM maximum bandwidth. *)

open Simurgh_workloads

let run ~scale =
  let ops = Util.scaled ~scale 3000 in
  Util.header "fig6: FxMark DRBL read bandwidth, original vs adapted (GB/s)";
  Util.print_thread_header Util.thread_counts;
  let cm = Simurgh_sim.Cost_model.default in
  let max_bw_gb =
    cm.Simurgh_sim.Cost_model.nvmm_read_bw *. cm.Simurgh_sim.Cost_model.freq_hz
    /. 1e9
  in
  let targets = [ Targets.simurgh (); Targets.nova () ] in
  List.iter
    (fun (t : Targets.target) ->
      List.iter
        (fun cache_hot ->
          Util.row_header
            (Printf.sprintf "%s %s" t.Targets.name
               (if cache_hot then "orig" else "adapted"));
          List.iter
            (fun threads ->
              let r =
                t.Targets.run_fx ~threads ~ops
                  (Fxmark.Read_private { cache_hot })
              in
              Printf.printf " %9.2f" (r.Fxmark.bandwidth /. 1e9))
            Util.thread_counts;
          print_newline ())
        [ true; false ])
    targets;
  Printf.printf "%-18s %9.2f GB/s (model constant)\n" "max NVMM bw" max_bw_gb;
  Printf.printf
    "expected shape: 'orig' exceeds the NVMM line (cache hits); 'adapted' \
     saturates at it\n"
