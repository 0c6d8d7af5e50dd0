(* In-memory span recorder for the traced benchmark run.

   A span is (name, start, end, parent), times in monotonic nanoseconds.
   Every domain records into its own buffer (Domain-local), so the shard
   domains of a sharded run never contend; a span's parent is a global id
   (buffer index, slot) and may live in another domain's buffer — the
   per-shard spans hang under the main domain's [shardnet.run] span.
   Storage is Bigarray-backed, so millions of spans add nothing for the
   GC to scan.  [write] stamps one run id on every span it writes. *)

module B = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) B.t

(* Span names.  The ids index [names]. *)
let run = 0
let setup = 1
let engine_run = 2
let enqueue = 3
let dequeue = 4
let emit = 5
let tcp_send = 6
let sink_probe = 7
let sink_tcp = 8
let extract = 9
let shardnet_run = 10
let shard_setup = 11
let shard_windows = 12

let names =
  [| "run"; "setup"; "engine.run"; "qdisc.enqueue"; "qdisc.dequeue";
     "source.emit"; "tcp.send"; "sink.probe"; "sink.tcp"; "extract";
     "shardnet.run"; "shard.setup"; "shard.windows" |]

let n_names = Array.length names

let now () = Int64.to_int (Monotonic_clock.now ())

type buf = {
  index : int;
  mutable cap : int;
  mutable name : ints;
  mutable t0 : ints;
  mutable t1 : ints;
  mutable parent : ints;
  mutable n : int;
  mutable stack : int array;
  mutable depth : int;
  mutable root : int;  (* Global parent id of this buffer's top-level spans. *)
  (* Per-domain counters kept beside the spans. *)
  mutable empty_dequeues : int;
  mutable drops : int;
  mutable depth_hwm : int;
  mutable arena_hwm : int;
}

let no_parent = -1
let gid b i = (b.index lsl 40) lor i
let gid_buf g = g lsr 40
let gid_slot g = g land ((1 lsl 40) - 1)

let alloc cap : ints = B.create Bigarray.int Bigarray.c_layout cap

let registry : buf list ref = ref []
let registry_lock = Mutex.create ()
let next_index = ref 0

let make_buf () =
  Mutex.lock registry_lock;
  let index = !next_index in
  incr next_index;
  let cap = 1 lsl 16 in
  let b =
    { index; cap; name = alloc cap; t0 = alloc cap; t1 = alloc cap;
      parent = alloc cap; n = 0; stack = Array.make 64 0; depth = 0;
      root = no_parent; empty_dequeues = 0; drops = 0; depth_hwm = 0;
      arena_hwm = 0 }
  in
  registry := b :: !registry;
  Mutex.unlock registry_lock;
  b

let key = Domain.DLS.new_key make_buf
let cur () = Domain.DLS.get key

(* Forget every span recorded so far; buffers of finished domains are
   dropped, the calling domain's buffer is emptied. *)
let reset () =
  Mutex.lock registry_lock;
  registry := [];
  next_index := 0;
  Mutex.unlock registry_lock;
  Domain.DLS.set key (make_buf ())

let grow b =
  let cap = 2 * b.cap in
  let copy a =
    let a' = alloc cap in
    B.blit a (B.sub a' 0 b.cap);
    a'
  in
  b.name <- copy b.name;
  b.t0 <- copy b.t0;
  b.t1 <- copy b.t1;
  b.parent <- copy b.parent;
  b.cap <- cap

let enter b name =
  let i = b.n in
  if i = b.cap then grow b;
  b.n <- i + 1;
  B.unsafe_set b.name i name;
  B.unsafe_set b.parent i
    (if b.depth = 0 then b.root else gid b (Array.unsafe_get b.stack (b.depth - 1)));
  if b.depth = Array.length b.stack then
    b.stack <- Array.append b.stack (Array.make b.depth 0);
  Array.unsafe_set b.stack b.depth i;
  b.depth <- b.depth + 1;
  B.unsafe_set b.t0 i (now ());
  i

let leave b i =
  B.unsafe_set b.t1 i (now ());
  b.depth <- b.depth - 1

(* A span whose interval is already known (e.g. measured before the
   recorder could be reached); it does not touch the open-span stack. *)
let record b name ~t0 ~t1 ~parent =
  let i = b.n in
  if i = b.cap then grow b;
  b.n <- i + 1;
  B.unsafe_set b.name i name;
  B.unsafe_set b.parent i parent;
  B.unsafe_set b.t0 i t0;
  B.unsafe_set b.t1 i t1;
  i

let close b i ~t1 = B.unsafe_set b.t1 i t1

let buffers () =
  Mutex.lock registry_lock;
  let l = List.sort (fun a b -> compare a.index b.index) !registry in
  Mutex.unlock registry_lock;
  Array.of_list l

(* --- Analysis ---------------------------------------------------------- *)

type summary = {
  count : int array;  (** Spans per name. *)
  self_ns : float array;  (** Self time per name, ns, summed over spans. *)
  total_ns : float array;  (** Inclusive time per name, ns. *)
  root_ns : float;  (** Duration of the first [run] span. *)
  attributed_ns : float;
      (** Self times of the [run] tree added back up: equals [root_ns]
          exactly when every span nests inside its parent and same-domain
          siblings never overlap.  Children in another domain run in
          parallel and contribute the union of their intervals. *)
}

(* Self time is a span's duration minus the part of it its children cover
   (the union of their intervals).  Same-domain children arrive in start
   order, so their union streams; cross-domain children are collected,
   sorted and merged.  The additivity check folds each subtree's
   attributed time A(s) = self(s) + sum of same-domain children's A +
   union of cross-domain children, bottom-up: buffers of other domains
   first (their top spans hang under the main buffer, which [reset]
   creates first), each buffer in reverse slot order (children are
   recorded after their parents). *)
let analyse () =
  let bufs = buffers () in
  let nb = Array.length bufs in
  let union = Array.map (fun b -> Array.make b.n 0.) bufs in
  let last_end = Array.map (fun b -> Array.make b.n min_int) bufs in
  let child_a = Array.map (fun b -> Array.make b.n 0.) bufs in
  let cross : (int, (int * int) list) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun k b ->
      for i = 0 to b.n - 1 do
        let p = B.get b.parent i in
        if p <> no_parent && gid_buf p = b.index then begin
          let s = gid_slot p in
          let t0 = B.get b.t0 i and t1 = B.get b.t1 i in
          let from = max t0 last_end.(k).(s) in
          if t1 > from then
            union.(k).(s) <- union.(k).(s) +. float_of_int (t1 - from);
          if t1 > last_end.(k).(s) then last_end.(k).(s) <- t1
        end
      done)
    bufs;
  let cross_cover g =
    match Hashtbl.find_opt cross g with
    | None -> 0.
    | Some l ->
        let cov = ref 0. and last = ref min_int in
        List.iter
          (fun (t0, t1) ->
            let from = max t0 !last in
            if t1 > from then cov := !cov +. float_of_int (t1 - from);
            if t1 > !last then last := t1)
          (List.sort compare l);
        !cov
  in
  let count = Array.make n_names 0 in
  let self_ns = Array.make n_names 0. in
  let total_ns = Array.make n_names 0. in
  let root_ns = ref 0. and attributed_ns = ref 0. in
  for k = nb - 1 downto 0 do
    let b = bufs.(k) in
    for i = b.n - 1 downto 0 do
      let g = gid b i in
      let dur = float_of_int (B.get b.t1 i - B.get b.t0 i) in
      let cc = cross_cover g in
      (* Same-domain children and cross-domain children together. *)
      let covered = union.(k).(i) +. cc in
      let self = dur -. covered in
      let nm = B.get b.name i in
      count.(nm) <- count.(nm) + 1;
      self_ns.(nm) <- self_ns.(nm) +. self;
      total_ns.(nm) <- total_ns.(nm) +. dur;
      let a = self +. child_a.(k).(i) +. cc in
      let p = B.get b.parent i in
      if p = no_parent then begin
        if nm = run then begin
          root_ns := dur;
          attributed_ns := a
        end
      end
      else if gid_buf p = b.index then
        child_a.(k).(gid_slot p) <- child_a.(k).(gid_slot p) +. a
      else begin
        let prev = Option.value ~default:[] (Hashtbl.find_opt cross p) in
        Hashtbl.replace cross p ((B.get b.t0 i, B.get b.t1 i) :: prev)
      end
    done
  done;
  { count; self_ns; total_ns; root_ns = !root_ns;
    attributed_ns = !attributed_ns }

(* Write every recorded span as fixed 40-byte little-endian records
   (buffer, name, start ns, end ns, parent global id; parent -1 for
   roots) after a one-line text header naming the run and the names. *)
let write path ~run_id =
  let oc = open_out_bin path in
  Printf.fprintf oc "perfbench-spans v1 run=%s names=%s\n" run_id
    (String.concat "," (Array.to_list names));
  let rec_bytes = 40 in
  let chunk = Bytes.create (rec_bytes * 4096) in
  Array.iter
    (fun b ->
      let fill = ref 0 in
      let flush () =
        output oc chunk 0 !fill;
        fill := 0
      in
      for i = 0 to b.n - 1 do
        let put k v = Bytes.set_int64_le chunk (!fill + (8 * k)) (Int64.of_int v) in
        put 0 b.index;
        put 1 (B.get b.name i);
        put 2 (B.get b.t0 i);
        put 3 (B.get b.t1 i);
        put 4 (B.get b.parent i);
        fill := !fill + rec_bytes;
        if !fill = Bytes.length chunk then flush ()
      done;
      flush ())
    (buffers ());
  close_out oc
