open Dmn_prelude
open Dmn_graph
module Churn = Dmn_paths.Churn

(* ---------- serialization ---------- *)

let instance_to_string inst =
  let g =
    match Instance.graph inst with
    | Some g -> g
    | None -> invalid_arg "Serial: only graph-backed instances serialize"
  in
  let b = Buffer.create 4096 in
  let n = Instance.n inst and k = Instance.objects inst in
  Buffer.add_string b "dmnet-instance v1\n";
  Buffer.add_string b (Printf.sprintf "%d %d %d\n" n k (Wgraph.m g));
  List.iter
    (fun (u, v, w) -> Buffer.add_string b (Printf.sprintf "%d %d %.17g\n" u v w))
    (Wgraph.edges g);
  Buffer.add_string b
    (String.concat " " (List.init n (fun v -> Printf.sprintf "%.17g" (Instance.cs inst v))));
  Buffer.add_char b '\n';
  for x = 0 to k - 1 do
    Buffer.add_string b
      (String.concat " " (List.init n (fun v -> string_of_int (Instance.reads inst ~x v))));
    Buffer.add_char b '\n'
  done;
  for x = 0 to k - 1 do
    Buffer.add_string b
      (String.concat " " (List.init n (fun v -> string_of_int (Instance.writes inst ~x v))));
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let placement_to_string p =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "dmnet-placement v1\n%d\n" (Placement.objects p));
  for x = 0 to Placement.objects p - 1 do
    Buffer.add_string b
      (String.concat " " (List.map string_of_int (Placement.copies p ~x)));
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

(* ---------- tokenizer with source positions ---------- *)

(* Physical lines that are blank or start with [#] are comments. Every
   surviving token carries its 1-based source line so parse and
   validation errors can point at the offending place. *)

let is_space c = c = ' ' || c = '\t' || c = '\r'

let split_tokens line =
  let toks = ref [] and start = ref (-1) in
  String.iteri
    (fun i c ->
      if is_space c then begin
        if !start >= 0 then toks := String.sub line !start (i - !start) :: !toks;
        start := -1
      end
      else if !start < 0 then start := i)
    line;
  if !start >= 0 then toks := String.sub line !start (String.length line - !start) :: !toks;
  List.rev !toks

let logical_lines s =
  String.split_on_char '\n' s
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (ln, line) ->
         match split_tokens line with
         | [] -> None
         | first :: _ when first.[0] = '#' -> None
         | toks -> Some (ln, toks))

type cursor = {
  file : string option;
  toks : (string * int) array; (* token, 1-based source line *)
  mutable pos : int;
}

let cursor ?file s =
  let toks =
    logical_lines s
    |> List.concat_map (fun (ln, toks) -> List.map (fun t -> (t, ln)) toks)
    |> Array.of_list
  in
  { file; toks; pos = 0 }

let last_line c = if Array.length c.toks = 0 then None else Some (snd c.toks.(Array.length c.toks - 1))

let next c what =
  if c.pos >= Array.length c.toks then
    Err.failf ?file:c.file ?line:(last_line c) Err.Parse "truncated input: expected %s" what
  else begin
    let t = c.toks.(c.pos) in
    c.pos <- c.pos + 1;
    t
  end

let int_tok c what =
  let t, ln = next c what in
  match int_of_string_opt t with
  | Some v -> (v, ln)
  | None -> Err.failf ?file:c.file ~line:ln ~token:t Err.Parse "expected an integer for %s" what

let float_tok c what =
  let t, ln = next c what in
  match float_of_string_opt t with
  | Some v -> (v, ln, t)
  | None -> Err.failf ?file:c.file ~line:ln ~token:t Err.Parse "expected a number for %s" what

(* A declared count can never exceed the token count of its own file;
   checking this before allocating keeps a tampered header (say,
   "999999999 nodes") from blowing up memory. *)
let check_count c ln what v =
  if v < 0 then
    Err.failf ?file:c.file ~line:ln ~token:(string_of_int v) Err.Validation "%s must be non-negative"
      what;
  if v > Array.length c.toks then
    Err.failf ?file:c.file ~line:ln ~token:(string_of_int v) Err.Validation
      "declared %s (%d) exceeds the size of the input" what v

(* Backstop: constructor sanity checks ([Wgraph.create],
   [Instance.of_graph], [Placement.make]) become structured validation
   errors instead of escaping as [Invalid_argument]. *)
let constructed ?file f =
  match f () with
  | v -> v
  | exception Invalid_argument msg -> Err.fail ?file Err.Validation msg

(* ---------- instance parsing ---------- *)

let parse_instance c =
  let magic, ln = next c "format header" in
  if magic <> "dmnet-instance" then
    Err.failf ?file:c.file ~line:ln ~token:magic Err.Parse
      "bad header: expected \"dmnet-instance v1\"";
  let version, vln = next c "format version" in
  if version <> "v1" then
    Err.failf ?file:c.file ~line:vln ~token:version Err.Parse
      "unsupported dmnet-instance version %s (this build reads v1)" version;
  let n, nln = int_tok c "the node count" in
  check_count c nln "node count" n;
  if n = 0 then Err.fail ?file:c.file ~line:nln Err.Validation "instance must have at least one node";
  let k, kln = int_tok c "the object count" in
  check_count c kln "object count" k;
  if k = 0 then
    Err.fail ?file:c.file ~line:kln Err.Validation "instance must have at least one object";
  let m, mln = int_tok c "the edge count" in
  check_count c mln "edge count" m;
  let seen = Hashtbl.create (2 * m) in
  let edges =
    List.init m (fun _ ->
        let u, uln = int_tok c "an edge endpoint" in
        let v, vln = int_tok c "an edge endpoint" in
        let w, wln, wtok = float_tok c "an edge weight" in
        let endpoint e ln =
          if e < 0 || e >= n then
            Err.failf ?file:c.file ~line:ln ~token:(string_of_int e) Err.Validation
              "edge endpoint %d out of range [0, %d)" e n
        in
        endpoint u uln;
        endpoint v vln;
        if u = v then
          Err.failf ?file:c.file ~line:uln ~token:(string_of_int u) Err.Validation
            "self-loop on node %d" u;
        if w < 0.0 || not (Float.is_finite w) then
          Err.failf ?file:c.file ~line:wln ~token:wtok Err.Validation
            "edge weight must be finite and non-negative";
        let key = (min u v, max u v) in
        if Hashtbl.mem seen key then
          Err.failf ?file:c.file ~line:uln Err.Validation "duplicate edge %d-%d" u v;
        Hashtbl.add seen key ();
        (u, v, w))
  in
  let g = constructed ?file:c.file (fun () -> Wgraph.create n edges) in
  let cs =
    Array.init n (fun i ->
        let v, ln, tok = float_tok c (Printf.sprintf "storage cost %d of %d" (i + 1) n) in
        if Float.is_nan v || v < 0.0 then
          Err.failf ?file:c.file ~line:ln ~token:tok Err.Validation
            "storage cost must be non-negative";
        if v = infinity then
          Err.failf ?file:c.file ~line:ln ~token:tok Err.Validation
            "storage cost must be finite (non-finite costs do not round-trip)";
        v)
  in
  let counts what =
    Array.init k (fun x ->
        Array.init n (fun i ->
            let v, ln =
              int_tok c (Printf.sprintf "%s count %d of %d for object %d" what (i + 1) n x)
            in
            if v < 0 then
              Err.failf ?file:c.file ~line:ln ~token:(string_of_int v) Err.Validation
                "%s count must be non-negative" what;
            v))
  in
  let fr = counts "read" in
  let fw = counts "write" in
  if c.pos < Array.length c.toks then begin
    let tok, ln = c.toks.(c.pos) in
    Err.failf ?file:c.file ~line:ln ~token:tok Err.Parse
      "trailing input after a complete instance"
  end;
  constructed ?file:c.file (fun () -> Instance.of_graph g ~cs ~fr ~fw)

let instance_of_string_res ?file s = Err.protect (fun () -> parse_instance (cursor ?file s))

(* ---------- placement parsing ---------- *)

let parse_placement ?file s =
  match logical_lines s with
  | [] -> Err.fail ?file Err.Parse "empty input: expected \"dmnet-placement v1\""
  | (hln, header) :: rest ->
      (match header with
      | [ "dmnet-placement"; "v1" ] -> ()
      | "dmnet-placement" :: version :: _ ->
          Err.failf ?file ~line:hln ~token:version Err.Parse
            "unsupported dmnet-placement version %s (this build reads v1)" version
      | tok :: _ ->
          Err.failf ?file ~line:hln ~token:tok Err.Parse
            "bad header: expected \"dmnet-placement v1\""
      | [] -> assert false);
      (match rest with
      | [] -> Err.fail ?file ~line:hln Err.Parse "truncated input: expected the object count"
      | (cln, count_toks) :: rows ->
          let k =
            match count_toks with
            | [ tok ] -> (
                match int_of_string_opt tok with
                | Some k when k >= 0 -> k
                | Some _ ->
                    Err.failf ?file ~line:cln ~token:tok Err.Validation
                      "object count must be non-negative"
                | None ->
                    Err.failf ?file ~line:cln ~token:tok Err.Parse
                      "expected an integer object count")
            | tok :: _ ->
                Err.failf ?file ~line:cln ~token:tok Err.Parse
                  "the object count line must hold a single integer"
            | [] -> assert false
          in
          if List.length rows <> k then
            Err.failf ?file ~line:cln Err.Validation
              "declared %d objects but found %d copy rows" k (List.length rows);
          let copies =
            List.map
              (fun (rln, toks) ->
                List.map
                  (fun tok ->
                    match int_of_string_opt tok with
                    | Some v when v >= 0 -> v
                    | Some v ->
                        Err.failf ?file ~line:rln ~token:(string_of_int v) Err.Validation
                          "copy node must be non-negative"
                    | None ->
                        Err.failf ?file ~line:rln ~token:tok Err.Parse
                          "expected an integer copy node")
                  toks)
              rows
          in
          constructed ?file (fun () -> Placement.make (Array.of_list copies)))

let placement_of_string_res ?file s = Err.protect (fun () -> parse_placement ?file s)

(* ---------- crash-safe file I/O ---------- *)

let rec retry_eintr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let io_error path op err =
  Err.v ~file:path Err.Io (Printf.sprintf "%s: %s" op (Unix.error_message err))

let io_res path f =
  match f () with
  | v -> Ok v
  | exception Err.Error e -> Error (Err.with_file path e)
  | exception Unix.Unix_error (err, op, _) -> Error (io_error path op err)
  | exception Sys_error msg -> Error (Err.v ~file:path Err.Io msg)

let read_file_res path =
  match
    Fault.check "serial.read";
    let fd = retry_eintr (fun () -> Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0) in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let len = (Unix.fstat fd).Unix.st_size in
        let buf = Bytes.create len in
        let rec loop off =
          if off >= len then off
          else
            match retry_eintr (fun () -> Unix.read fd buf off (len - off)) with
            | 0 -> off
            | r -> loop (off + r)
        in
        let got = loop 0 in
        if got = len then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 got)
  with
  | s -> Ok s
  | exception Err.Error e -> Error (Err.with_file path e)
  | exception Unix.Unix_error (err, op, _) -> Error (io_error path op err)
  | exception Sys_error msg -> Error (Err.v ~file:path Err.Io msg)

(* Durable atomic replace: write a temp file in the same directory,
   flush it to disk, then [rename] over the destination. Readers only
   ever see the old contents or the complete new contents; any failure
   (including an injected one) before the rename leaves the destination
   untouched and removes the temp file. *)

let tmp_counter = Atomic.make 0

let write_file_res path contents =
  let dir = Filename.dirname path in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".%s.tmp.%d.%d" (Filename.basename path) (Unix.getpid ())
         (Atomic.fetch_and_add tmp_counter 1))
  in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  match
    Fault.check "serial.write.open";
    let fd =
      retry_eintr (fun () ->
          Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644)
    in
    (try
       Fault.check "serial.write.write";
       if Fault.fires "serial.write.enospc" then
         raise (Unix.Unix_error (Unix.ENOSPC, "write", tmp));
       let len = String.length contents in
       let short =
         (* injected short write: a prefix lands on disk, then the
            write fails — the torn tmp file must not survive *)
         if Fault.fires "serial.write.short" then Some (len / 2) else None
       in
       let stop = match short with Some s -> s | None -> len in
       let rec loop off =
         if off < stop then
           loop (off + retry_eintr (fun () -> Unix.write_substring fd contents off (stop - off)))
       in
       loop 0;
       (match short with
       | Some s -> Err.failf Err.Fault "injected short write (%d of %d bytes)" s len
       | None -> ());
       Fault.check "serial.write.fsync";
       retry_eintr (fun () -> Unix.fsync fd);
       retry_eintr (fun () -> Unix.close fd)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ | Sys_error _ -> ());
       raise e);
    Fault.check "serial.write.rename";
    Sys.rename tmp path;
    (* Make the rename itself durable; best-effort, as not every
       platform lets a directory fd be fsync'd. *)
    match retry_eintr (fun () -> Unix.openfile dir [ Unix.O_RDONLY ] 0) with
    | dfd ->
        (try retry_eintr (fun () -> Unix.fsync dfd) with Unix.Unix_error _ -> ());
        (try Unix.close dfd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  with
  | () -> Ok ()
  | exception Err.Error e ->
      cleanup ();
      Error (Err.with_file path e)
  | exception Unix.Unix_error (err, op, _) ->
      cleanup ();
      Error (io_error path op err)
  | exception Sys_error msg ->
      cleanup ();
      Error (Err.v ~file:path Err.Io msg)
  | exception e ->
      (* any other exception class still unlinks the tmp file *)
      cleanup ();
      raise e

let write_file path contents = Err.get_ok (write_file_res path contents)

(* ---------- numbered-file directories ---------- *)

let ensure_dir_res dir =
  match (Unix.stat dir).Unix.st_kind with
  | Unix.S_DIR -> Ok ()
  | _ -> Err.error ~file:dir Err.Io "path exists and is not a directory"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> (
      match Unix.mkdir dir 0o755 with
      | () -> Ok ()
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
      | exception Unix.Unix_error (err, op, _) -> Error (io_error dir op err))
  | exception Unix.Unix_error (err, op, _) -> Error (io_error dir op err)

let scan_numbered_res dir ~prefix ~suffix =
  let lp = String.length prefix and ls = String.length suffix in
  let number name =
    let l = String.length name in
    if l > lp + ls && String.starts_with ~prefix name && String.ends_with ~suffix name then
      let digits = String.sub name lp (l - lp - ls) in
      if String.for_all (fun c -> c >= '0' && c <= '9') digits then int_of_string_opt digits
      else None
    else None
  in
  match Sys.readdir dir with
  | names ->
      Ok
        (Array.to_list names
        |> List.filter_map (fun name ->
               Option.map (fun k -> (k, Filename.concat dir name)) (number name))
        |> List.sort compare)
  | exception Sys_error msg -> Err.error ~file:dir Err.Io msg

(* ---------- streaming request traces ---------- *)

module Trace = struct
  type header = { nodes : int; objects : int }
  type event = { node : int; x : int; write : bool }
  type topo = Churn.event
  type item = Req of event | Topo of topo

  let int_field ?file ~line what t =
    match int_of_string_opt t with
    | Some v -> v
    | None -> Err.failf ?file ~line ~token:t Err.Parse "expected an integer %s" what

  (* topology-event line kinds; request kinds stay 'r'/'w' *)
  let is_topo_kind = function "ew" | "ed" | "eu" | "nd" | "nu" -> true | _ -> false

  let parse_event ?file ~header ln toks =
    match toks with
    | [ kind; node_tok; x_tok ] ->
        let write =
          match kind with
          | "r" -> false
          | "w" -> true
          | _ ->
              Err.failf ?file ~line:ln ~token:kind Err.Parse
                "expected event kind 'r' or 'w'"
        in
        let node = int_field ?file ~line:ln "event node" node_tok in
        let x = int_field ?file ~line:ln "event object" x_tok in
        if node < 0 || node >= header.nodes then
          Err.failf ?file ~line:ln ~token:node_tok Err.Validation
            "event node %d out of range [0, %d)" node header.nodes;
        if x < 0 || x >= header.objects then
          Err.failf ?file ~line:ln ~token:x_tok Err.Validation
            "event object %d out of range [0, %d)" x header.objects;
        { node; x; write }
    | tok :: _ ->
        Err.failf ?file ~line:ln ~token:tok Err.Parse
          "malformed event line: expected \"r|w <node> <object>\""
    | [] -> assert false

  let parse_topo ?file ~header ln kind toks =
    let node what tok =
      let v = int_field ?file ~line:ln what tok in
      if v < 0 || v >= header.nodes then
        Err.failf ?file ~line:ln ~token:tok Err.Validation "%s %d out of range [0, %d)" what v
          header.nodes;
      v
    in
    let weight tok =
      match float_of_string_opt tok with
      | Some w when Float.is_finite w && w >= 0.0 -> w
      | Some _ ->
          Err.failf ?file ~line:ln ~token:tok Err.Validation
            "edge weight must be finite and non-negative"
      | None -> Err.failf ?file ~line:ln ~token:tok Err.Parse "expected a number for an edge weight"
    in
    match (kind, toks) with
    | "ew", [ u; v; w ] ->
        Churn.Edge_weight { u = node "edge endpoint" u; v = node "edge endpoint" v; w = weight w }
    | "ed", [ u; v ] -> Churn.Edge_down { u = node "edge endpoint" u; v = node "edge endpoint" v }
    | "eu", [ u; v; w ] ->
        Churn.Edge_up { u = node "edge endpoint" u; v = node "edge endpoint" v; w = weight w }
    | "nd", [ z ] -> Churn.Node_down (node "event node" z)
    | "nu", [ z ] -> Churn.Node_up (node "event node" z)
    | _ ->
        Err.failf ?file ~line:ln ~token:kind Err.Parse
          "malformed topology line: expected \"ew|eu <u> <v> <w>\", \"ed <u> <v>\" or \"nd|nu \
           <node>\""

  let parse_item ?file ~header ln toks =
    match toks with
    | kind :: rest when is_topo_kind kind -> Topo (parse_topo ?file ~header ln kind rest)
    | _ -> Req (parse_event ?file ~header ln toks)

  (* One logical (non-blank, non-comment) line at a time, so a trace is
     never materialized: memory is one line regardless of length.

     A final line not terminated by '\n' is the signature of a partial
     write (a crash mid-append): with [tolerate = false] it is reported
     as a structured parse error carrying the line number and its byte
     offset; with [tolerate = true] the reader stops cleanly just
     before it, as if the stream ended at the last complete line. *)
  let read_logical ~file ~tolerate ~size ~final_newline ic lineno =
    let rec loop () =
      let off = pos_in ic in
      match input_line ic with
      | exception End_of_file -> None
      | line ->
          incr lineno;
          if (not final_newline) && pos_in ic >= size then
            if tolerate then None
            else
              Err.failf ~file ~line:!lineno Err.Parse
                "truncated final line at byte offset %d (no trailing newline — a partial \
                 write?); re-read tolerating truncation to stop at the last complete event"
                off
          else (
            match split_tokens line with
            | [] -> loop ()
            | first :: _ when first.[0] = '#' -> loop ()
            | toks -> Some (!lineno, toks))
    in
    loop ()

  let parse_header ~file ~read =
    (match read () with
    | None -> Err.fail ~file Err.Parse "empty input: expected \"dmnet-trace v1\""
    | Some (_, [ "dmnet-trace"; "v1" ]) -> ()
    | Some (ln, "dmnet-trace" :: version :: _) ->
        Err.failf ~file ~line:ln ~token:version Err.Parse
          "unsupported dmnet-trace version %s (this build reads v1)" version
    | Some (ln, tok :: _) ->
        Err.failf ~file ~line:ln ~token:tok Err.Parse
          "bad header: expected \"dmnet-trace v1\""
    | Some (_, []) -> assert false);
    match read () with
    | None -> Err.fail ~file Err.Parse "truncated input: expected \"<nodes> <objects>\""
    | Some (ln, [ ntok; ktok ]) ->
        let nodes = int_field ~file ~line:ln "the node count" ntok in
        let objects = int_field ~file ~line:ln "the object count" ktok in
        if nodes <= 0 then
          Err.failf ~file ~line:ln ~token:ntok Err.Validation "trace must cover at least one node";
        if objects <= 0 then
          Err.failf ~file ~line:ln ~token:ktok Err.Validation
            "trace must cover at least one object";
        { nodes; objects }
    | Some (ln, tok :: _) ->
        Err.failf ~file ~line:ln ~token:tok Err.Parse
          "malformed count line: expected \"<nodes> <objects>\""
    | Some (_, []) -> assert false

  let with_items_res ?(tolerate_truncation = false) path f =
    match
      Fault.check "trace.read";
      open_in_bin path
    with
    | exception Err.Error e -> Error (Err.with_file path e)
    | exception Sys_error msg -> Error (Err.v ~file:path Err.Io msg)
    | ic ->
        Fun.protect
          ~finally:(fun () -> try close_in ic with Sys_error _ -> ())
          (fun () ->
            match
              let size = in_channel_length ic in
              let final_newline =
                size = 0
                ||
                (seek_in ic (size - 1);
                 let c = input_char ic in
                 seek_in ic 0;
                 c = '\n')
              in
              let lineno = ref 0 in
              let read ~tolerate () =
                read_logical ~file:path ~tolerate ~size ~final_newline ic lineno
              in
              (* Header truncation is never tolerated: there is no
                 complete prefix worth resuming from. *)
              let header = parse_header ~file:path ~read:(read ~tolerate:false) in
              let rec next () =
                Fault.check "trace.read.event";
                match read ~tolerate:tolerate_truncation () with
                | None -> Seq.Nil
                | Some (ln, toks) -> Seq.Cons (parse_item ~file:path ~header ln toks, next)
              in
              f header next
            with
            | v -> Ok v
            | exception Err.Error e -> Error (Err.with_file path e)
            | exception Sys_error msg -> Error (Err.v ~file:path Err.Io msg))

  let with_items ?tolerate_truncation path f =
    Err.get_ok (with_items_res ?tolerate_truncation path f)

  let output_event oc ~path ~nodes ~objects { node; x; write } =
    if node < 0 || node >= nodes then
      Err.failf ~file:path Err.Validation "event node %d out of range [0, %d)" node nodes;
    if x < 0 || x >= objects then
      Err.failf ~file:path Err.Validation "event object %d out of range [0, %d)" x objects;
    output_string oc (if write then "w " else "r ");
    output_string oc (string_of_int node);
    output_char oc ' ';
    output_string oc (string_of_int x);
    output_char oc '\n'

  let output_topo oc ~path ~nodes topo =
    let node z =
      if z < 0 || z >= nodes then
        Err.failf ~file:path Err.Validation "topology event node %d out of range [0, %d)" z nodes
    in
    let weight w =
      if (not (Float.is_finite w)) || w < 0.0 then
        Err.failf ~file:path Err.Validation
          "topology edge weight must be finite and non-negative"
    in
    match (topo : topo) with
    | Churn.Edge_weight { u; v; w } ->
        node u;
        node v;
        weight w;
        Printf.fprintf oc "ew %d %d %.17g\n" u v w
    | Churn.Edge_down { u; v } ->
        node u;
        node v;
        Printf.fprintf oc "ed %d %d\n" u v
    | Churn.Edge_up { u; v; w } ->
        node u;
        node v;
        weight w;
        Printf.fprintf oc "eu %d %d %.17g\n" u v w
    | Churn.Node_down z ->
        node z;
        Printf.fprintf oc "nd %d\n" z
    | Churn.Node_up z ->
        node z;
        Printf.fprintf oc "nu %d\n" z

  let write_items_res path { nodes; objects } items =
    if nodes <= 0 then Err.error ~file:path Err.Validation "trace must cover at least one node"
    else if objects <= 0 then
      Err.error ~file:path Err.Validation "trace must cover at least one object"
    else begin
      let dir = Filename.dirname path in
      let tmp =
        Filename.concat dir
          (Printf.sprintf ".%s.tmp.%d.%d" (Filename.basename path) (Unix.getpid ())
             (Atomic.fetch_and_add tmp_counter 1))
      in
      let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
      match
        Fault.check "trace.write.open";
        let fd =
          retry_eintr (fun () ->
              Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644)
        in
        let oc = Unix.out_channel_of_descr fd in
        (try
           Printf.fprintf oc "dmnet-trace v1\n%d %d\n" nodes objects;
           let count = ref 0 in
           Seq.iter
             (fun item ->
               (match item with
               | Req e -> output_event oc ~path ~nodes ~objects e
               | Topo t -> output_topo oc ~path ~nodes t);
               incr count;
               (* a periodic fault point so chaos can hit a mid-stream
                  write without paying a coin per event *)
               if !count land 4095 = 0 then Fault.check "trace.write.write")
             items;
           flush oc;
           Fault.check "trace.write.fsync";
           retry_eintr (fun () -> Unix.fsync fd);
           close_out oc;
           Fault.check "trace.write.rename";
           Sys.rename tmp path;
           (match retry_eintr (fun () -> Unix.openfile dir [ Unix.O_RDONLY ] 0) with
           | dfd ->
               (try retry_eintr (fun () -> Unix.fsync dfd) with Unix.Unix_error _ -> ());
               (try Unix.close dfd with Unix.Unix_error _ -> ())
           | exception Unix.Unix_error _ -> ());
           !count
         with e ->
           close_out_noerr oc;
           raise e)
      with
      | count -> Ok count
      | exception Err.Error e ->
          cleanup ();
          Error (Err.with_file path e)
      | exception Unix.Unix_error (err, op, _) ->
          cleanup ();
          Error (io_error path op err)
      | exception Sys_error msg ->
          cleanup ();
          Error (Err.v ~file:path Err.Io msg)
    end

  let write_items path header items = Err.get_ok (write_items_res path header items)

  (* One wire line of the live ingest protocol. Blank lines, comments,
     and (matching) header lines are non-items so whole trace files can
     be streamed in concatenated. *)
  let item_of_line_res ?file ?(line = 0) ~header s =
    match
      match split_tokens s with
      | [] -> None
      | first :: _ when first.[0] = '#' -> None
      | [ "dmnet-trace"; "v1" ] -> None
      | "dmnet-trace" :: version :: _ ->
          Err.failf ?file ~line ~token:version Err.Parse
            "unsupported dmnet-trace version %s (this build reads v1)" version
      | [ a; b ]
        when (match (int_of_string_opt a, int_of_string_opt b) with
             | Some _, Some _ -> true
             | _ -> false) ->
          (* a bare "<nodes> <objects>" count line: the header of a
             concatenated trace — verify it matches the session *)
          let nodes = int_of_string a and objects = int_of_string b in
          if nodes <> header.nodes || objects <> header.objects then
            Err.failf ?file ~line ~token:a Err.Validation
              "stream header (%d nodes, %d objects) does not match the session's (%d nodes, \
               %d objects)"
              nodes objects header.nodes header.objects;
          None
      | toks -> Some (parse_item ?file ~header line toks)
    with
    | v -> Ok v
    | exception Err.Error e -> Error e

  module Appender = struct
    type t = {
      path : string;
      header : header;
      fd : Unix.file_descr;
      oc : out_channel;
      mutable items : int;
      mutable closed : bool;
    }

    let path t = t.path
    let header t = t.header
    let appended t = t.items

    let really_read fd buf len =
      let off = ref 0 in
      while !off < len do
        match retry_eintr (fun () -> Unix.read fd buf !off (len - !off)) with
        | 0 -> raise End_of_file
        | r -> off := !off + r
      done

    (* Truncate a torn final line (bytes after the last '\n') so the
       file ends at its last complete item; returns the kept size. *)
    let repair_tail fd =
      let size = (Unix.fstat fd).Unix.st_size in
      if size = 0 then 0
      else begin
        let chunk = Bytes.create 4096 in
        let rec last_newline pos =
          if pos <= 0 then -1
          else begin
            let len = min 4096 pos in
            let off = pos - len in
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            really_read fd chunk len;
            let found = ref (-1) in
            for i = len - 1 downto 0 do
              if !found < 0 && Bytes.get chunk i = '\n' then found := off + i
            done;
            if !found >= 0 then !found else last_newline off
          end
        in
        let keep = last_newline size + 1 in
        if keep < size then retry_eintr (fun () -> Unix.ftruncate fd keep);
        keep
      end

    let create_res ?(append = false) path header =
      if header.nodes <= 0 then
        Err.error ~file:path Err.Validation "trace must cover at least one node"
      else if header.objects <= 0 then
        Err.error ~file:path Err.Validation "trace must cover at least one object"
      else begin
        match
          Fault.check "trace.append.open";
          let fresh = (not append) || not (Sys.file_exists path) in
          (if not fresh then
             (* validate the existing header before touching the file *)
             match with_items_res ~tolerate_truncation:true path (fun h _ -> h) with
             | Error e -> raise (Err.Error e)
             | Ok h ->
                 if h <> header then
                   Err.failf ~file:path Err.Validation
                     "append: existing trace header (%d nodes, %d objects) does not match (%d \
                      nodes, %d objects)"
                     h.nodes h.objects header.nodes header.objects);
          let flags =
            if fresh then [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
            else [ Unix.O_RDWR; Unix.O_CLOEXEC ]
          in
          let fd = retry_eintr (fun () -> Unix.openfile path flags 0o644) in
          let pos = if fresh then 0 else repair_tail fd in
          ignore (Unix.lseek fd pos Unix.SEEK_SET);
          let oc = Unix.out_channel_of_descr fd in
          let t = { path; header; fd; oc; items = 0; closed = false } in
          if fresh then begin
            Printf.fprintf oc "dmnet-trace v1\n%d %d\n" header.nodes header.objects;
            flush oc;
            retry_eintr (fun () -> Unix.fsync fd)
          end;
          t
        with
        | t -> Ok t
        | exception Err.Error e -> Error (Err.with_file path e)
        | exception Unix.Unix_error (err, op, _) -> Error (io_error path op err)
        | exception Sys_error msg -> Error (Err.v ~file:path Err.Io msg)
        | exception End_of_file ->
            Error (Err.v ~file:path Err.Io "unexpected end of file while repairing the tail")
      end

    let guard t f =
      if t.closed then Err.error ~file:t.path Err.Io "trace appender is closed" else io_res t.path f

    let add_res t item =
      guard t (fun () ->
          if Fault.fires "trace.append.enospc" then
            raise (Unix.Unix_error (Unix.ENOSPC, "write", t.path));
          (if Fault.fires "trace.append.short" then begin
             (* injected torn append: a partial line reaches the disk and
                the write fails — dropped by [repair_tail] on reopen *)
             flush t.oc;
             let torn = "r 0" in
             let _ : int =
               retry_eintr (fun () -> Unix.write_substring t.fd torn 0 (String.length torn))
             in
             Err.failf Err.Fault "injected torn append (partial line on disk)"
           end);
          (match item with
          | Req e ->
              output_event t.oc ~path:t.path ~nodes:t.header.nodes ~objects:t.header.objects e
          | Topo tp -> output_topo t.oc ~path:t.path ~nodes:t.header.nodes tp);
          t.items <- t.items + 1;
          (* a periodic fault point so chaos can hit a mid-stream
             append without paying a coin per event *)
          if t.items land 4095 = 0 then Fault.check "trace.append.write")

    let sync_res t =
      guard t (fun () ->
          flush t.oc;
          Fault.check "trace.append.sync";
          retry_eintr (fun () -> Unix.fsync t.fd))

    let close_res t =
      if t.closed then Ok ()
      else
        match
          flush t.oc;
          Fault.check "trace.append.sync";
          retry_eintr (fun () -> Unix.fsync t.fd);
          t.closed <- true;
          close_out t.oc
        with
        | () -> Ok ()
        | exception Err.Error e ->
            t.closed <- true;
            close_out_noerr t.oc;
            Error (Err.with_file t.path e)
        | exception Unix.Unix_error (err, op, _) ->
            t.closed <- true;
            close_out_noerr t.oc;
            Error (io_error t.path op err)
        | exception Sys_error msg ->
            t.closed <- true;
            close_out_noerr t.oc;
            Error (Err.v ~file:t.path Err.Io msg)
  end

  (* A rotating, prunable chain of appender segments: the daemon's
     ingest journal with bounded disk. Segment [seg-<start>.trace]
     holds the items whose absolute indices begin at [start]; the chain
     is contiguous by construction, so any segment's item count is the
     next segment's start minus its own. *)
  module Journal = struct
    let ( let* ) = Result.bind

    let segment_name start = Printf.sprintf "seg-%016d.trace" start
    let list_segments_res dir = scan_numbered_res dir ~prefix:"seg-" ~suffix:".trace"

    let count_items_res ?(tolerate_truncation = true) path =
      with_items_res ~tolerate_truncation path (fun h items ->
          (h, Seq.fold_left (fun acc _ -> acc + 1) 0 items))

    type t = {
      dir : string;
      header : header;
      rotate_items : int;
      mutable seg_start : int;  (** absolute index of the active segment's first item *)
      mutable seg_items : int;  (** items in the active segment, pre-existing included *)
      mutable appender : Appender.t;
      mutable durable : int;  (** absolute item count covered by the last sync *)
      mutable closed : bool;
    }

    let dir t = t.dir
    let header t = t.header
    let items_total t = t.seg_start + t.seg_items
    let durable t = t.durable

    let segments_res t =
      let* segs = list_segments_res t.dir in
      Ok (List.length segs)

    let segments t = Err.get_ok (segments_res t)

    let bytes_on_disk_res t =
      let* segs = list_segments_res t.dir in
      match
        List.fold_left (fun acc (_, path) -> acc + (Unix.stat path).Unix.st_size) 0 segs
      with
      | bytes -> Ok bytes
      | exception Unix.Unix_error (err, op, _) -> Error (io_error t.dir op err)

    let bytes_on_disk t = Err.get_ok (bytes_on_disk_res t)

    let create_res ?(append = false) ?(rotate_items = 65536) dir header =
      if rotate_items <= 0 then
        Err.error ~file:dir Err.Validation "journal rotation threshold must be positive"
      else
        let* () = ensure_dir_res dir in
        let* segs = list_segments_res dir in
        let* segs =
          if append || segs = [] then Ok segs
          else
            (* a fresh journal replaces whatever chain was there, the
               way [Appender.create ~append:false] truncates a file *)
            match List.iter (fun (_, path) -> Sys.remove path) segs with
            | () -> Ok []
            | exception Sys_error msg -> Error (Err.v ~file:dir Err.Io msg)
        in
        match List.rev segs with
        | [] ->
            let path = Filename.concat dir (segment_name 0) in
            let* appender = Appender.create_res path header in
            Ok
              {
                dir;
                header;
                rotate_items;
                seg_start = 0;
                seg_items = 0;
                appender;
                durable = 0;
                closed = false;
              }
        | (start, path) :: _ ->
            (* continue the chain: reopen the last segment (repairing a
               torn tail) and count what survives in it *)
            let* appender = Appender.create_res ~append:true path header in
            let* _, existing = count_items_res ~tolerate_truncation:false path in
            Ok
              {
                dir;
                header;
                rotate_items;
                seg_start = start;
                seg_items = existing;
                appender;
                durable = start + existing;
                closed = false;
              }

    let create ?append ?rotate_items dir header =
      Err.get_ok (create_res ?append ?rotate_items dir header)

    let rotate_res t =
      let* () = Appender.close_res t.appender in
      let start = items_total t in
      let path = Filename.concat t.dir (segment_name start) in
      let* appender = Appender.create_res path t.header in
      t.appender <- appender;
      t.seg_start <- start;
      t.seg_items <- 0;
      (* the closed segment was synced by [close]; its items are durable *)
      if t.durable < start then t.durable <- start;
      Ok ()

    let add_res t item =
      if t.closed then Err.error ~file:t.dir Err.Io "journal is closed"
      else
        let* () = if t.seg_items >= t.rotate_items then rotate_res t else Ok () in
        let* () = Appender.add_res t.appender item in
        t.seg_items <- t.seg_items + 1;
        Ok ()

    let add t item = Err.get_ok (add_res t item)

    let sync_res t =
      if t.closed then Err.error ~file:t.dir Err.Io "journal is closed"
      else
        let* () = Appender.sync_res t.appender in
        t.durable <- items_total t;
        Ok ()

    let sync t = Err.get_ok (sync_res t)

    let close_res t =
      if t.closed then Ok ()
      else begin
        t.closed <- true;
        let* () = Appender.close_res t.appender in
        t.durable <- items_total t;
        Ok ()
      end

    let close t = Err.get_ok (close_res t)

    (* Drop every segment whose entire item range a durable checkpoint
       covers: segment i may go iff segment i+1 starts at or before
       [covered]. The last segment has no successor and is never
       pruned. Returns the removed paths in chain order. *)
    let prune_dir_res dir ~covered =
      let* segs = list_segments_res dir in
      let rec go removed = function
        | (_, path) :: ((next_start, _) :: _ as rest) when next_start <= covered -> (
            match Sys.remove path with
            | () -> go (path :: removed) rest
            | exception Sys_error msg -> Error (Err.v ~file:path Err.Io msg))
        | _ -> Ok (List.rev removed)
      in
      go [] segs

    let prune_res t ~covered =
      if t.closed then Err.error ~file:t.dir Err.Io "journal is closed"
      else
        let* removed = prune_dir_res t.dir ~covered in
        Ok (List.length removed)

    let prune t ~covered = Err.get_ok (prune_res t ~covered)

    (* ---------- offline chain reading ---------- *)

    type chain = { chain_header : header; base : int; chain_items : item list }

    (* Eager read of the whole surviving chain, in order. Strictness is
       positional: only the final segment may carry a torn tail (and
       only under [tolerate_truncation]) — torn bytes mid-chain are
       lost items and always an error, as is a gap or an overlap
       between consecutive segments. *)
    let read_chain_res ?(tolerate_truncation = true) dir =
      let* segs = list_segments_res dir in
      match segs with
      | [] -> Err.error ~file:dir Err.Io "journal directory holds no segments"
      | (base, _) :: _ ->
          let rec go acc header_opt expected = function
            | [] ->
                let items = List.concat (List.rev acc) in
                Ok { chain_header = Option.get header_opt; base; chain_items = items }
            | (start, path) :: rest ->
                if start <> expected then
                  Err.errorf ~file:path Err.Validation
                    "journal chain gap: segment starts at item %d but the previous segment \
                     ends at %d"
                    start expected
                else
                  let last = rest = [] in
                  let* h, items =
                    with_items_res ~tolerate_truncation:(last && tolerate_truncation) path
                      (fun h items -> (h, List.of_seq items))
                  in
                  let* () =
                    match header_opt with
                    | Some h0 when h <> h0 ->
                        Err.error ~file:path Err.Validation
                          "journal chain header mismatch between segments"
                    | _ -> Ok ()
                  in
                  go (items :: acc) (Some h) (start + List.length items) rest
          in
          go [] None base segs

    let read_chain ?tolerate_truncation dir = Err.get_ok (read_chain_res ?tolerate_truncation dir)

    (* ---------- offline validation ---------- *)

    type fsck_report = {
      f_segments : int;
      f_items : int;  (** complete items across the chain *)
      f_bytes : int;
      f_torn_tail : bool;  (** final segment ends mid-line *)
      f_repaired : bool;
    }

    let ends_with_newline path =
      match Unix.openfile path [ Unix.O_RDONLY ] 0 with
      | fd ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let size = (Unix.fstat fd).Unix.st_size in
              if size = 0 then true
              else begin
                ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
                let b = Bytes.create 1 in
                retry_eintr (fun () -> Unix.read fd b 0 1) = 1 && Bytes.get b 0 = '\n'
              end)
      | exception Unix.Unix_error (err, op, _) -> raise (Err.Error (io_error path op err))

    let fsck_res ?(repair = false) dir =
      let* segs = list_segments_res dir in
      match segs with
      | [] -> Err.error ~file:dir Err.Io "journal directory holds no segments"
      | _ ->
          let last_path = snd (List.nth segs (List.length segs - 1)) in
          let* torn =
            match ends_with_newline last_path with
            | complete -> Ok (not complete)
            | exception Err.Error e -> Error e
          in
          let* repaired =
            if torn && repair then
              (* reopening for append truncates the torn tail *)
              let* h, _ =
                with_items_res ~tolerate_truncation:true last_path (fun h items ->
                    (h, Seq.fold_left (fun acc _ -> acc + 1) 0 items))
              in
              let* a = Appender.create_res ~append:true last_path h in
              let* () = Appender.close_res a in
              Ok true
            else Ok false
          in
          (* strict-read everything except a still-unrepaired torn
             tail, and prove the chain contiguous *)
          let* chain = read_chain_res ~tolerate_truncation:(torn && not repaired) dir in
          let* bytes =
            match
              List.fold_left (fun acc (_, path) -> acc + (Unix.stat path).Unix.st_size) 0 segs
            with
            | bytes -> Ok bytes
            | exception Unix.Unix_error (err, op, _) -> Error (io_error dir op err)
          in
          Ok
            {
              f_segments = List.length segs;
              f_items = List.length chain.chain_items;
              f_bytes = bytes;
              f_torn_tail = torn;
              f_repaired = repaired;
            }
  end
end

(* ---------- file + parse conveniences ---------- *)

let ( let* ) = Result.bind

let load_instance path =
  let* s = read_file_res path in
  instance_of_string_res ~file:path s

let load_placement path =
  let* s = read_file_res path in
  placement_of_string_res ~file:path s

(* ---------- replay checkpoints ---------- *)

module Checkpoint = struct
  type hist_state = {
    h_lo : float;
    h_base : float;
    h_buckets : int;
    h_sum : float;
    h_counts : (int * int) list;
  }

  (* The topology delta: everything a resumed run needs to rebuild the
     churn state without replaying distances — plus the metric hash, so
     a reconstruction that diverges anywhere in the matrix is refused
     rather than silently resumed. *)
  type topo_state = {
    metric_version : int;
    metric_hash : int64;
    down : int list; (* ascending *)
    edge_overrides : ((int * int) * float option) list; (* canonical u < v *)
  }

  let no_topo = { metric_version = 1; metric_hash = 0L; down = []; edge_overrides = [] }

  (* Per-object incremental-resolve state: the frequency vector the
     object last solved against (sparse, ascending node index) and the
     distance-matrix hash of the network it solved on. A resumed run
     needs these to reproduce the dirty-set decisions of the original
     run exactly; an object that never solved carries [o_valid = false]
     (forced dirty at its next active epoch — "object birth"). *)
  type obj_state = {
    o_valid : bool;
    o_mhash : int64;
    o_fr : (int * int) list;
    o_fw : (int * int) list;
  }

  let no_obj_state = { o_valid = false; o_mhash = 0L; o_fr = []; o_fw = [] }

  (* The epoch rows live in an append-only log beside the generations
     ({!Ckpt_store}); a generation names the prefix it covers by row
     count, byte length and CRC-32, so its size does not grow with the
     run. *)
  type log_prefix = { l_rows : int; l_bytes : int; l_crc : int32 }

  let empty_log = { l_rows = 0; l_bytes = 0; l_crc = 0l }

  type t = {
    policy : string;
    epoch_size : int;
    period : int;
    dirty_eps : float;
    next_epoch : int;
    events_consumed : int;
    topo_consumed : int;
    topo_applied : int;
    fingerprint : int64;
    nodes : int;
    objects : int;
    placements : int list array;
    resolve_state : obj_state array;
    log : log_prefix;
    hist : hist_state;
    topo : topo_state;
    checkpoints_written : int;
    serve_retries : int;
  }

  (* ----- trace-identity fingerprint -----

     A SplitMix64-finalized (same constants as [Fault]) order-sensitive
     fold over the header and every consumed event: resuming against a
     different trace — or the same trace reordered or edited anywhere in
     the consumed prefix — is detected before any work happens. *)

  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let fingerprint_init ~nodes ~objects =
    mix64
      (Int64.logxor
         (mix64 (Int64.of_int nodes))
         (Int64.add (Int64.of_int objects) 0x9e3779b97f4a7c15L))

  let fingerprint_event h (e : Trace.event) =
    let tag = (e.node lsl 22) lxor (e.x lsl 1) lxor Bool.to_int e.write in
    mix64 (Int64.add (Int64.mul h 0x100000001b3L) (Int64.of_int tag))

  (* Topology events fold with per-constructor codes shifted past bit
     40 — far above any request tag (node lsl 22) — so a topo item can
     never collide with a request, and an edited weight changes the hash
     through its exact float bits. *)
  let fingerprint_topo h (t : Trace.topo) =
    let fold h tag =
      mix64 (Int64.add (Int64.mul h 0x100000001b3L) tag)
    in
    let code c a b = Int64.logor (Int64.shift_left (Int64.of_int c) 40) (Int64.of_int ((a lsl 20) lxor b)) in
    match t with
    | Churn.Edge_weight { u; v; w } -> fold (fold h (code 1 u v)) (Int64.bits_of_float w)
    | Churn.Edge_down { u; v } -> fold h (code 2 u v)
    | Churn.Edge_up { u; v; w } -> fold (fold h (code 3 u v)) (Int64.bits_of_float w)
    | Churn.Node_down z -> fold h (code 4 z 0)
    | Churn.Node_up z -> fold h (code 5 z 0)

  let fingerprint_item h (it : Trace.item) =
    match it with Trace.Req e -> fingerprint_event h e | Trace.Topo t -> fingerprint_topo h t

  (* ----- rendering -----

     Line-oriented text; each section header carries its body line
     count and the CRC-32 of the exact body bytes, so torn writes and
     bit rot are caught per section with a structured error. Floats are
     "%.17g" (round-trippable). *)

  let fl x = Printf.sprintf "%.17g" x

  let obj_state_to_line o =
    let buf = Buffer.create 64 in
    Buffer.add_string buf (if o.o_valid then "1" else "0");
    Buffer.add_char buf ' ';
    Buffer.add_string buf (Printf.sprintf "%016Lx" o.o_mhash);
    let sparse tag l =
      Buffer.add_string buf (Printf.sprintf " %s %d" tag (List.length l));
      List.iter (fun (v, c) -> Buffer.add_string buf (Printf.sprintf " %d %d" v c)) l
    in
    sparse "r" o.o_fr;
    sparse "w" o.o_fw;
    Buffer.contents buf

  (* Serialization is a single pass into one buffer: each section body
     is rendered once (to CRC the exact bytes), then appended — the
     whole snapshot is materialized in memory before any disk I/O
     happens, so the write path is a plain blob-store operation
     (snapshot-then-write). *)
  let add_section buf name lines =
    let body = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
    Buffer.add_string buf
      (Printf.sprintf "section %s %d %s\n" name (List.length lines)
         (Crc32.to_hex (Crc32.digest body)));
    Buffer.add_string buf body

  let to_string t =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "dmnet-ckpt v5\n";
    add_section buf "meta"
      [
        "policy " ^ t.policy;
        Printf.sprintf "epoch_size %d" t.epoch_size;
        Printf.sprintf "period %d" t.period;
        Printf.sprintf "dirty_eps %h" t.dirty_eps;
        Printf.sprintf "next_epoch %d" t.next_epoch;
        Printf.sprintf "events %d" t.events_consumed;
        Printf.sprintf "topo_consumed %d" t.topo_consumed;
        Printf.sprintf "topo_applied %d" t.topo_applied;
        Printf.sprintf "fingerprint %016Lx" t.fingerprint;
        Printf.sprintf "nodes %d" t.nodes;
        Printf.sprintf "objects %d" t.objects;
      ];
    add_section buf "placements"
      (string_of_int (Array.length t.placements)
      :: (Array.to_list t.placements
         |> List.map (fun cs -> String.concat " " (List.map string_of_int cs))));
    add_section buf "resolve"
      (Printf.sprintf "count %d" (Array.length t.resolve_state)
      :: List.map obj_state_to_line (Array.to_list t.resolve_state));
    add_section buf "epochs"
      [ Printf.sprintf "log %d %d %s" t.log.l_rows t.log.l_bytes (Crc32.to_hex t.log.l_crc) ];
    add_section buf "histogram"
      (Printf.sprintf "%s %s %d %s" (fl t.hist.h_lo) (fl t.hist.h_base) t.hist.h_buckets
         (fl t.hist.h_sum)
      :: List.map (fun (i, c) -> Printf.sprintf "%d %d" i c) t.hist.h_counts);
    add_section buf "topology"
      ([
         Printf.sprintf "metric_version %d" t.topo.metric_version;
         Printf.sprintf "metric_hash %016Lx" t.topo.metric_hash;
         String.concat " " ("down" :: List.map string_of_int t.topo.down);
         Printf.sprintf "overrides %d" (List.length t.topo.edge_overrides);
       ]
      @ List.map
          (fun ((u, v), ov) ->
            match ov with
            | Some w -> Printf.sprintf "ow %d %d %s" u v (fl w)
            | None -> Printf.sprintf "od %d %d" u v)
          t.topo.edge_overrides);
    add_section buf "ops"
      [
        Printf.sprintf "checkpoints_written %d" t.checkpoints_written;
        Printf.sprintf "serve_retries %d" t.serve_retries;
      ];
    Buffer.contents buf

  (* ----- parsing ----- *)

  let parse ?file s =
    let lines = Array.of_list (String.split_on_char '\n' s) in
    let n = Array.length lines in
    (* a well-formed file ends in '\n', leaving one empty trailing cell *)
    let limit = if n > 0 && lines.(n - 1) = "" then n - 1 else n in
    let pos = ref 0 in
    let next what =
      if !pos >= limit then
        Err.failf ?file ~line:limit Err.Parse "truncated checkpoint: expected %s" what
      else begin
        let l = lines.(!pos) in
        incr pos;
        (!pos, l)
      end
    in
    (let ln, l = next "the format header" in
     match split_tokens l with
     | [ "dmnet-ckpt"; "v5" ] -> ()
     | "dmnet-ckpt" :: version :: _ ->
         Err.failf ?file ~line:ln ~token:version Err.Parse
           "unsupported dmnet-ckpt version %s (this build reads v5)" version
     | tok :: _ ->
         Err.failf ?file ~line:ln ~token:tok Err.Parse "bad header: expected \"dmnet-ckpt v5\""
     | [] -> Err.failf ?file ~line:ln Err.Parse "bad header: expected \"dmnet-ckpt v5\"");
    let sections = Hashtbl.create 8 in
    while !pos < limit do
      let ln, l = next "a section header" in
      match split_tokens l with
      | [ "section"; name; count_tok; crc_tok ] ->
          let count =
            match int_of_string_opt count_tok with
            | Some c when c >= 0 -> c
            | _ ->
                Err.failf ?file ~line:ln ~token:count_tok Err.Parse
                  "expected a non-negative section line count"
          in
          if !pos + count > limit then
            Err.failf ?file ~line:ln Err.Parse
              "truncated checkpoint: section %s declares %d lines but only %d remain" name count
              (limit - !pos);
          let body_lines = Array.to_list (Array.sub lines !pos count) in
          let body_ln = !pos + 1 in
          pos := !pos + count;
          let stored =
            match Crc32.of_hex_opt crc_tok with
            | Some c -> c
            | None ->
                Err.failf ?file ~line:ln ~token:crc_tok Err.Parse
                  "expected an 8-hex-digit section CRC"
          in
          let body = String.concat "" (List.map (fun l -> l ^ "\n") body_lines) in
          let computed = Crc32.digest body in
          if stored <> computed then
            Err.failf ?file ~line:ln Err.Validation
              "checkpoint section %s is corrupt: CRC mismatch (stored %s, computed %s)" name
              (Crc32.to_hex stored) (Crc32.to_hex computed);
          if Hashtbl.mem sections name then
            Err.failf ?file ~line:ln ~token:name Err.Parse "duplicate checkpoint section %s" name;
          Hashtbl.add sections name (body_ln, body_lines)
      | tok :: _ ->
          Err.failf ?file ~line:ln ~token:tok Err.Parse
            "expected \"section <name> <lines> <crc>\""
      | [] -> Err.failf ?file ~line:ln Err.Parse "unexpected blank line between sections"
    done;
    let get name =
      match Hashtbl.find_opt sections name with
      | Some v -> v
      | None -> Err.failf ?file Err.Parse "checkpoint is missing the %s section" name
    in
    let int_of ln what tok =
      match int_of_string_opt tok with
      | Some v -> v
      | None -> Err.failf ?file ~line:ln ~token:tok Err.Parse "expected an integer %s" what
    in
    let float_of ln what tok =
      match float_of_string_opt tok with
      | Some v when not (Float.is_nan v) -> v
      | _ -> Err.failf ?file ~line:ln ~token:tok Err.Parse "expected a number for %s" what
    in
    (* meta *)
    let meta_ln, meta_lines = get "meta" in
    let meta = Hashtbl.create 8 in
    List.iteri
      (fun i l ->
        let ln = meta_ln + i in
        match split_tokens l with
        | [ key; value ] -> Hashtbl.replace meta key (ln, value)
        | tok :: _ ->
            Err.failf ?file ~line:ln ~token:tok Err.Parse
              "malformed meta line: expected \"<key> <value>\""
        | [] -> Err.failf ?file ~line:ln Err.Parse "blank meta line")
      meta_lines;
    let meta_field key =
      match Hashtbl.find_opt meta key with
      | Some v -> v
      | None -> Err.failf ?file ~line:meta_ln Err.Parse "meta section is missing %s" key
    in
    let meta_int key =
      let ln, tok = meta_field key in
      (ln, int_of ln key tok)
    in
    let policy = snd (meta_field "policy") in
    let esz_ln, epoch_size = meta_int "epoch_size" in
    let per_ln, period = meta_int "period" in
    let dirty_eps =
      let ln, tok = meta_field "dirty_eps" in
      let v = float_of ln "dirty_eps" tok in
      if v < 0.0 then
        Err.failf ?file ~line:ln ~token:tok Err.Validation "dirty_eps must be non-negative";
      v
    in
    let ne_ln, next_epoch = meta_int "next_epoch" in
    let ev_ln, events_consumed = meta_int "events" in
    let tc_ln, topo_consumed = meta_int "topo_consumed" in
    let ta_ln, topo_applied = meta_int "topo_applied" in
    let fingerprint =
      let ln, tok = meta_field "fingerprint" in
      if String.length tok <> 16 || not (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) tok)
      then Err.failf ?file ~line:ln ~token:tok Err.Parse "expected a 16-hex-digit fingerprint";
      Int64.of_string ("0x" ^ tok)
    in
    let nd_ln, nodes = meta_int "nodes" in
    let ob_ln, objects = meta_int "objects" in
    if epoch_size < 1 then
      Err.fail ?file ~line:esz_ln Err.Validation "epoch_size must be positive";
    if period < 1 then Err.fail ?file ~line:per_ln Err.Validation "period must be positive";
    if next_epoch < 0 then
      Err.fail ?file ~line:ne_ln Err.Validation "next_epoch must be non-negative";
    if events_consumed < 0 then
      Err.fail ?file ~line:ev_ln Err.Validation "events must be non-negative";
    if topo_consumed < 0 then
      Err.fail ?file ~line:tc_ln Err.Validation "topo_consumed must be non-negative";
    if topo_applied < 0 || topo_applied > topo_consumed then
      Err.failf ?file ~line:ta_ln Err.Validation
        "topo_applied must lie in [0, topo_consumed = %d]" topo_consumed;
    if nodes < 1 then Err.fail ?file ~line:nd_ln Err.Validation "nodes must be positive";
    if objects < 1 then Err.fail ?file ~line:ob_ln Err.Validation "objects must be positive";
    (* placements *)
    let pl_ln, pl_lines = get "placements" in
    let placements =
      match pl_lines with
      | [] -> Err.failf ?file ~line:pl_ln Err.Parse "placements section is empty"
      | count_line :: rows ->
          let k =
            match split_tokens count_line with
            | [ tok ] -> int_of pl_ln "object count" tok
            | _ ->
                Err.failf ?file ~line:pl_ln Err.Parse
                  "the placements count line must hold a single integer"
          in
          if k <> objects then
            Err.failf ?file ~line:pl_ln Err.Validation
              "placements section declares %d objects but meta says %d" k objects;
          if List.length rows <> k then
            Err.failf ?file ~line:pl_ln Err.Validation
              "placements section declares %d objects but holds %d rows" k (List.length rows);
          Array.of_list
            (List.mapi
               (fun i row ->
                 let ln = pl_ln + 1 + i in
                 match split_tokens row with
                 | [] ->
                     Err.failf ?file ~line:ln Err.Validation
                       "object %d has no copies (every object keeps at least one)" i
                 | toks ->
                     List.map
                       (fun tok ->
                         let v = int_of ln "copy node" tok in
                         if v < 0 || v >= nodes then
                           Err.failf ?file ~line:ln ~token:tok Err.Validation
                             "copy node %d out of range [0, %d)" v nodes;
                         v)
                       toks)
               rows)
    in
    (* per-object incremental-resolve state *)
    let rs_ln, rs_lines = get "resolve" in
    let resolve_state =
      match rs_lines with
      | [] -> Err.failf ?file ~line:rs_ln Err.Parse "resolve section is empty"
      | count_line :: rows ->
          let k =
            match split_tokens count_line with
            | [ "count"; tok ] -> int_of rs_ln "resolve-state object count" tok
            | _ -> Err.failf ?file ~line:rs_ln Err.Parse "expected \"count <objects>\""
          in
          if k <> objects then
            Err.failf ?file ~line:rs_ln Err.Validation
              "resolve section declares %d objects but meta says %d" k objects;
          if List.length rows <> k then
            Err.failf ?file ~line:rs_ln Err.Validation
              "resolve section declares %d objects but holds %d rows" k (List.length rows);
          let parse_sparse ln tag toks =
            match toks with
            | t :: ctok :: rest when t = tag ->
                let count = int_of ln "sparse entry count" ctok in
                if count < 0 then
                  Err.failf ?file ~line:ln ~token:ctok Err.Validation
                    "sparse entry count must be non-negative";
                let last = ref (-1) in
                let rec take acc n toks =
                  if n = 0 then (List.rev acc, toks)
                  else
                    match toks with
                    | vtok :: ctok :: rest ->
                        let v = int_of ln "node index" vtok in
                        let c = int_of ln "frequency count" ctok in
                        if v < 0 || v >= nodes then
                          Err.failf ?file ~line:ln ~token:vtok Err.Validation
                            "node index %d out of range [0, %d)" v nodes;
                        if v <= !last then
                          Err.failf ?file ~line:ln ~token:vtok Err.Validation
                            "sparse node indices must be strictly ascending";
                        if c <= 0 then
                          Err.failf ?file ~line:ln ~token:ctok Err.Validation
                            "stored frequency counts must be positive";
                        last := v;
                        take ((v, c) :: acc) (n - 1) rest
                    | _ ->
                        Err.failf ?file ~line:ln Err.Parse
                          "truncated sparse vector: %d entries declared" count
                in
                take [] count rest
            | _ -> Err.failf ?file ~line:ln Err.Parse "expected sparse vector tagged %S" tag
          in
          Array.of_list
            (List.mapi
               (fun i row ->
                 let ln = rs_ln + 1 + i in
                 match split_tokens row with
                 | valid_tok :: mhash_tok :: rest ->
                     let o_valid =
                       match valid_tok with
                       | "0" -> false
                       | "1" -> true
                       | _ ->
                           Err.failf ?file ~line:ln ~token:valid_tok Err.Parse
                             "expected 0 or 1 for the solved flag"
                     in
                     let o_mhash =
                       if
                         String.length mhash_tok = 16
                         && String.for_all
                              (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
                              mhash_tok
                       then Int64.of_string ("0x" ^ mhash_tok)
                       else
                         Err.failf ?file ~line:ln ~token:mhash_tok Err.Parse
                           "expected a 16-hex-digit metric hash"
                     in
                     let o_fr, rest = parse_sparse ln "r" rest in
                     let o_fw, rest = parse_sparse ln "w" rest in
                     if rest <> [] then
                       Err.failf ?file ~line:ln Err.Parse
                         "trailing tokens after the write vector";
                     { o_valid; o_mhash; o_fr; o_fw }
                 | _ ->
                     Err.failf ?file ~line:ln Err.Parse
                       "malformed resolve-state row: expected \"<solved> <hash> r ... w ...\"")
               rows)
    in
    (* epochs: the row-log prefix; the rows themselves are checked
       against this meta section when {!Ckpt_store} loads them *)
    let ep_ln, ep_lines = get "epochs" in
    let log =
      match ep_lines with
      | [ line ] -> (
          match split_tokens line with
          | [ "log"; rows_tok; bytes_tok; crc_tok ] ->
              let l_rows = int_of ep_ln "log row count" rows_tok in
              let l_bytes = int_of ep_ln "log byte length" bytes_tok in
              if l_bytes < 0 then
                Err.failf ?file ~line:ep_ln ~token:bytes_tok Err.Validation
                  "log byte length must be non-negative";
              if l_rows <> next_epoch then
                Err.failf ?file ~line:ep_ln ~token:rows_tok Err.Validation
                  "epochs section names %d log rows but next_epoch is %d (one row per \
                   completed epoch)"
                  l_rows next_epoch;
              let l_crc =
                match Crc32.of_hex_opt crc_tok with
                | Some c -> c
                | None ->
                    Err.failf ?file ~line:ep_ln ~token:crc_tok Err.Parse
                      "expected an 8-hex-digit log CRC"
              in
              { l_rows; l_bytes; l_crc }
          | _ ->
              Err.failf ?file ~line:ep_ln Err.Parse
                "malformed epochs line: expected \"log <rows> <bytes> <crc>\"")
      | _ -> Err.failf ?file ~line:ep_ln Err.Parse "the epochs section must hold one line"
    in
    (* histogram *)
    let h_ln, h_lines = get "histogram" in
    let hist =
      match h_lines with
      | [] -> Err.failf ?file ~line:h_ln Err.Parse "histogram section is empty"
      | params :: buckets ->
          let h_lo, h_base, h_buckets, h_sum =
            match split_tokens params with
            | [ lo; base; nb; sum ] ->
                ( float_of h_ln "histogram lo" lo,
                  float_of h_ln "histogram base" base,
                  int_of h_ln "histogram bucket count" nb,
                  float_of h_ln "histogram sum" sum )
            | _ ->
                Err.failf ?file ~line:h_ln Err.Parse
                  "malformed histogram params: expected \"<lo> <base> <buckets> <sum>\""
          in
          if not (h_lo > 0.0 && Float.is_finite h_lo) then
            Err.fail ?file ~line:h_ln Err.Validation "histogram lo must be positive and finite";
          if not (h_base > 1.0 && Float.is_finite h_base) then
            Err.fail ?file ~line:h_ln Err.Validation "histogram base must be > 1 and finite";
          if h_buckets < 2 then
            Err.fail ?file ~line:h_ln Err.Validation "histogram needs at least 2 buckets";
          let last = ref (-1) in
          let h_counts =
            List.mapi
              (fun i row ->
                let ln = h_ln + 1 + i in
                match split_tokens row with
                | [ itok; ctok ] ->
                    let idx = int_of ln "bucket index" itok in
                    let c = int_of ln "bucket count" ctok in
                    if idx < 0 || idx >= h_buckets then
                      Err.failf ?file ~line:ln ~token:itok Err.Validation
                        "bucket index %d out of range [0, %d)" idx h_buckets;
                    if idx <= !last then
                      Err.failf ?file ~line:ln ~token:itok Err.Validation
                        "bucket indices must be strictly ascending";
                    if c <= 0 then
                      Err.failf ?file ~line:ln ~token:ctok Err.Validation
                        "stored bucket counts must be positive";
                    last := idx;
                    (idx, c)
                | _ ->
                    Err.failf ?file ~line:ln Err.Parse
                      "malformed bucket line: expected \"<index> <count>\"")
              buckets
          in
          { h_lo; h_base; h_buckets; h_sum; h_counts }
    in
    (* topology *)
    let t_ln, t_lines = get "topology" in
    let topo =
      match t_lines with
      | mv_line :: mh_line :: down_line :: ocount_line :: orows ->
          let metric_version =
            match split_tokens mv_line with
            | [ "metric_version"; tok ] ->
                let v = int_of t_ln "metric_version" tok in
                if v < 1 then
                  Err.failf ?file ~line:t_ln ~token:tok Err.Validation
                    "metric_version must be positive";
                v
            | _ ->
                Err.failf ?file ~line:t_ln Err.Parse "expected \"metric_version <int>\""
          in
          let metric_hash =
            match split_tokens mh_line with
            | [ "metric_hash"; tok ]
              when String.length tok = 16
                   && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) tok
              ->
                Int64.of_string ("0x" ^ tok)
            | _ ->
                Err.failf ?file ~line:(t_ln + 1) Err.Parse
                  "expected \"metric_hash <16 hex digits>\""
          in
          let down =
            match split_tokens down_line with
            | "down" :: toks ->
                let last = ref (-1) in
                List.map
                  (fun tok ->
                    let z = int_of (t_ln + 2) "down node" tok in
                    if z < 0 || z >= nodes then
                      Err.failf ?file ~line:(t_ln + 2) ~token:tok Err.Validation
                        "down node %d out of range [0, %d)" z nodes;
                    if z <= !last then
                      Err.failf ?file ~line:(t_ln + 2) ~token:tok Err.Validation
                        "down nodes must be strictly ascending";
                    last := z;
                    z)
                  toks
            | _ -> Err.failf ?file ~line:(t_ln + 2) Err.Parse "expected \"down [<node>...]\""
          in
          let ocount =
            match split_tokens ocount_line with
            | [ "overrides"; tok ] ->
                let v = int_of (t_ln + 3) "override count" tok in
                if v < 0 then
                  Err.failf ?file ~line:(t_ln + 3) ~token:tok Err.Validation
                    "override count must be non-negative";
                v
            | _ -> Err.failf ?file ~line:(t_ln + 3) Err.Parse "expected \"overrides <count>\""
          in
          if List.length orows <> ocount then
            Err.failf ?file ~line:(t_ln + 3) Err.Validation
              "topology section declares %d overrides but holds %d rows" ocount
              (List.length orows);
          let edge_overrides =
            List.mapi
              (fun i row ->
                let ln = t_ln + 4 + i in
                let pair utok vtok =
                  let u = int_of ln "override endpoint" utok in
                  let v = int_of ln "override endpoint" vtok in
                  if u < 0 || u >= nodes || v < 0 || v >= nodes then
                    Err.failf ?file ~line:ln Err.Validation
                      "override endpoints %d-%d out of range [0, %d)" u v nodes;
                  if u >= v then
                    Err.failf ?file ~line:ln Err.Validation
                      "override endpoints must be canonical (u < v), got %d-%d" u v;
                  (u, v)
                in
                match split_tokens row with
                | [ "ow"; utok; vtok; wtok ] ->
                    let w = float_of ln "override weight" wtok in
                    if (not (Float.is_finite w)) || w < 0.0 then
                      Err.failf ?file ~line:ln ~token:wtok Err.Validation
                        "override weight must be finite and non-negative";
                    (pair utok vtok, Some w)
                | [ "od"; utok; vtok ] -> (pair utok vtok, None)
                | _ ->
                    Err.failf ?file ~line:ln Err.Parse
                      "malformed override row: expected \"ow <u> <v> <w>\" or \"od <u> <v>\"")
              orows
          in
          { metric_version; metric_hash; down; edge_overrides }
      | _ ->
          Err.failf ?file ~line:t_ln Err.Parse
            "malformed topology section: expected metric_version, metric_hash, down and \
             overrides lines"
    in
    (* ops *)
    let o_ln, o_lines = get "ops" in
    let ops = Hashtbl.create 4 in
    List.iteri
      (fun i l ->
        let ln = o_ln + i in
        match split_tokens l with
        | [ key; value ] ->
            let v = int_of ln key value in
            if v < 0 then
              Err.failf ?file ~line:ln ~token:value Err.Validation "%s must be non-negative" key;
            Hashtbl.replace ops key v
        | _ ->
            Err.failf ?file ~line:ln Err.Parse "malformed ops line: expected \"<key> <value>\"")
      o_lines;
    let ops_field key =
      match Hashtbl.find_opt ops key with
      | Some v -> v
      | None -> Err.failf ?file ~line:o_ln Err.Parse "ops section is missing %s" key
    in
    {
      policy;
      epoch_size;
      period;
      dirty_eps;
      next_epoch;
      events_consumed;
      topo_consumed;
      topo_applied;
      fingerprint;
      nodes;
      objects;
      placements;
      resolve_state;
      log;
      hist;
      topo;
      checkpoints_written = ops_field "checkpoints_written";
      serve_retries = ops_field "serve_retries";
    }

  let of_string_res ?file s = Err.protect (fun () -> parse ?file s)
  let save_res path t = write_file_res path (to_string t)

  let load_res path =
    let* s = read_file_res path in
    of_string_res ~file:path s
end
