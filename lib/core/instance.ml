open Dmn_graph
open Dmn_paths

type t = {
  graph : Wgraph.t option;
  metric : Metric.t;
  cs : float array;
  fr : int array array;
  fw : int array array;
}

let check metric ~cs ~fr ~fw =
  let n = Metric.size metric in
  if Array.length cs <> n then invalid_arg "Instance: cs length mismatch";
  Array.iter
    (fun c -> if c < 0.0 || Float.is_nan c then invalid_arg "Instance: negative storage cost")
    cs;
  if Array.length fr = 0 then invalid_arg "Instance: no objects";
  if Array.length fr <> Array.length fw then invalid_arg "Instance: fr/fw object count mismatch";
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Instance: fr row length") fr;
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Instance: fw row length") fw;
  let non_neg row = Array.iter (fun c -> if c < 0 then invalid_arg "Instance: negative count") row in
  Array.iter non_neg fr;
  Array.iter non_neg fw

(* Forces the metric's distance order here, on the calling domain, so
   solves fanned out over the instance only read it. *)
let make graph metric ~cs ~fr ~fw =
  check metric ~cs ~fr ~fw;
  ignore (Metric.order metric : int array array);
  { graph; metric; cs = Array.copy cs; fr = Array.map Array.copy fr; fw = Array.map Array.copy fw }

let of_metric metric ~cs ~fr ~fw = make None metric ~cs ~fr ~fw

let of_graph ?(require_connected = true) g ~cs ~fr ~fw =
  if require_connected && Wgraph.n g > 0 then begin
    let hops = Wgraph.bfs_hops g 0 in
    Array.iteri
      (fun v d ->
        if d < 0 then
          invalid_arg
            (Printf.sprintf
               "Instance.of_graph: graph is disconnected (node %d unreachable from node 0)" v))
      hops
  end;
  make (Some g) (Metric.of_graph g) ~cs ~fr ~fw

let n t = Metric.size t.metric
let objects t = Array.length t.fr
let metric t = t.metric
let graph t = t.graph
let cs t v = t.cs.(v)
let reads t ~x v = t.fr.(x).(v)
let writes t ~x v = t.fw.(x).(v)
let requests t ~x v = t.fr.(x).(v) + t.fw.(x).(v)

let total_writes t ~x = Array.fold_left ( + ) 0 t.fw.(x)
let total_reads t ~x = Array.fold_left ( + ) 0 t.fr.(x)
let total_requests t ~x = total_reads t ~x + total_writes t ~x
let read_only t ~x = total_writes t ~x = 0

let related_flp t ~x =
  let demand = Array.init (n t) (fun v -> float_of_int (requests t ~x v)) in
  Dmn_facility.Flp.create t.metric ~opening:t.cs ~demand

let restrict_object t ~x =
  { t with fr = [| Array.copy t.fr.(x) |]; fw = [| Array.copy t.fw.(x) |] }

let scale_object t ~x ~storage ~transmission =
  if storage <= 0.0 || transmission <= 0.0 then
    invalid_arg "Instance.scale_object: factors must be positive";
  let cs = Array.map (fun c -> storage *. c) t.cs in
  let fr = [| Array.copy t.fr.(x) |] and fw = [| Array.copy t.fw.(x) |] in
  match t.graph with
  | Some g ->
      let g = Wgraph.map_weights (fun _ _ w -> transmission *. w) g in
      of_graph g ~cs ~fr ~fw
  | None -> of_metric (Metric.scale transmission t.metric) ~cs ~fr ~fw
