open Dmn_paths

(* variable layout: y_i at [i], x_ij at [n + i*n + j] *)
let build_lp inst =
  let n = Flp.size inst in
  let nv = n + (n * n) in
  let y i = i in
  let x i j = n + (i * n) + j in
  let objective = Array.make nv 0.0 in
  for i = 0 to n - 1 do
    objective.(y i) <- (if inst.Flp.opening.(i) = infinity then 1e12 else inst.Flp.opening.(i));
    for j = 0 to n - 1 do
      objective.(x i j) <- inst.Flp.demand.(j) *. Metric.d inst.Flp.metric i j
    done
  done;
  let constraints = ref [] in
  for j = 0 to n - 1 do
    if inst.Flp.demand.(j) > 0.0 then begin
      let row = Array.make nv 0.0 in
      for i = 0 to n - 1 do
        row.(x i j) <- 1.0
      done;
      constraints := (row, Dmn_lp.Simplex.Eq, 1.0) :: !constraints;
      for i = 0 to n - 1 do
        let row = Array.make nv 0.0 in
        row.(x i j) <- 1.0;
        row.(y i) <- -1.0;
        constraints := (row, Dmn_lp.Simplex.Le, 0.0) :: !constraints
      done
    end
  done;
  (objective, List.rev !constraints)

let solve_lp inst =
  if Flp.size inst > 40 then invalid_arg "Sta: instance too large for the dense LP";
  let objective, constraints = build_lp inst in
  match Dmn_lp.Simplex.minimize ~objective ~constraints with
  | Dmn_lp.Simplex.Optimal { value; x } -> (value, x)
  | Dmn_lp.Simplex.Infeasible -> invalid_arg "Sta: LP infeasible (internal error)"
  | Dmn_lp.Simplex.Unbounded -> invalid_arg "Sta: LP unbounded (internal error)"

let lp_value inst = fst (solve_lp inst)

let solve ?(alpha = 0.25) inst =
  if alpha <= 0.0 || alpha >= 1.0 then invalid_arg "Sta.solve: alpha must be in (0, 1)";
  let n = Flp.size inst in
  let _, sol = solve_lp inst in
  let xv i j = sol.(n + (i * n) + j) in
  let d i j = Metric.d inst.Flp.metric i j in
  (* alpha-point radius per client with demand *)
  let clients = List.filter (fun j -> inst.Flp.demand.(j) > 0.0) (List.init n Fun.id) in
  let radius j =
    let facs = List.init n Fun.id |> List.sort (fun a b -> compare (d a j) (d b j)) in
    let rec go mass = function
      | [] -> infinity
      | i :: rest ->
          let mass = mass +. xv i j in
          if mass >= alpha -. 1e-9 then d i j else go mass rest
    in
    go 0.0 facs
  in
  let r = Array.make n infinity in
  List.iter (fun j -> r.(j) <- radius j) clients;
  (* process clients by ascending radius *)
  let order = List.sort (fun a b -> compare (r.(a), a) (r.(b), b)) clients in
  let served = Array.make n false in
  let opened = ref [] in
  List.iter
    (fun j ->
      if not served.(j) then begin
        (* cheapest facility within j's ball *)
        let best = ref (-1) in
        for i = 0 to n - 1 do
          if d i j <= r.(j) +. 1e-9 && inst.Flp.opening.(i) < infinity then
            if !best < 0 || inst.Flp.opening.(i) < inst.Flp.opening.(!best) then best := i
        done;
        let i =
          if !best >= 0 then !best
          else begin
            (* all in-ball facilities forbidden: take the nearest allowed *)
            let alt = ref (-1) in
            for c = 0 to n - 1 do
              if inst.Flp.opening.(c) < infinity && (!alt < 0 || d c j < d !alt j) then alt := c
            done;
            !alt
          end
        in
        opened := i :: !opened;
        served.(j) <- true;
        (* absorb every client whose ball intersects j's ball *)
        List.iter
          (fun k ->
            if not served.(k) then begin
              let intersects =
                let rec scan c =
                  c < n && ((d c j <= r.(j) +. 1e-9 && d c k <= r.(k) +. 1e-9) || scan (c + 1))
                in
                scan 0
              in
              if intersects then served.(k) <- true
            end)
          clients
      end)
    order;
  if !opened = [] then begin
    (* no demand at all: cheapest site *)
    let best = ref 0 in
    for i = 1 to n - 1 do
      if inst.Flp.opening.(i) < inst.Flp.opening.(!best) then best := i
    done;
    opened := [ !best ]
  end;
  List.sort_uniq compare !opened
