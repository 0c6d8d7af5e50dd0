let header_bytes = 16
let version = 1
let offset_quantum = 1e-6

exception Malformed of string

let encode (p : Packet.t) =
  let size_bits = Packet.size_bits p in
  let flow = Packet.flow p in
  let seq = Packet.seq p in
  if size_bits <= 0 || size_bits > 0xFFFF then
    invalid_arg "Wire.encode: size_bits out of range";
  if flow < 0 || flow > 0x7FFFFFFF then
    invalid_arg "Wire.encode: flow out of range";
  if seq < 0 || seq > 0x7FFFFFFF then
    invalid_arg "Wire.encode: seq out of range";
  let b = Bytes.create header_bytes in
  Bytes.set_uint8 b 0 version;
  Bytes.set_uint8 b 1 (match Packet.kind p with Packet.Data -> 0 | Packet.Ack -> 1);
  Bytes.set_uint16_be b 2 size_bits;
  Bytes.set_int32_be b 4 (Int32.of_int flow);
  Bytes.set_int32_be b 8 (Int32.of_int seq);
  let micros = Packet.offset p *. 1e6 in
  let clamped =
    if micros > Int32.to_float Int32.max_int then Int32.max_int
    else if micros < Int32.to_float Int32.min_int then Int32.min_int
    else Int32.of_float (Float.round micros)
  in
  Bytes.set_int32_be b 12 clamped;
  b

let decode ?(created = 0.) b =
  if Bytes.length b < header_bytes then raise (Malformed "short header");
  let v = Bytes.get_uint8 b 0 in
  if v <> version then raise (Malformed (Printf.sprintf "version %d" v));
  let kind =
    match Bytes.get_uint8 b 1 with
    | 0 -> Packet.Data
    | 1 -> Packet.Ack
    | k -> raise (Malformed (Printf.sprintf "kind %d" k))
  in
  let size_bits = Bytes.get_uint16_be b 2 in
  (* A zero-size packet would transmit in zero time downstream; a
     corrupted size field must not smuggle one in. *)
  if size_bits = 0 then raise (Malformed "zero size");
  let flow = Int32.to_int (Bytes.get_int32_be b 4) in
  if flow < 0 then raise (Malformed (Printf.sprintf "negative flow %d" flow));
  let seq = Int32.to_int (Bytes.get_int32_be b 8) in
  if seq < 0 then raise (Malformed (Printf.sprintf "negative seq %d" seq));
  let offset = Int32.to_float (Bytes.get_int32_be b 12) *. offset_quantum in
  let p = Packet.alloc ~flow ~seq ~size_bits ~kind ~created in
  Packet.set_offset p offset;
  p
