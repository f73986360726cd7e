(* Digits are peeled off the non-positive side, where min_int fits. *)
let decimal n =
  let sign = if n < 0 then 1 else 0 in
  let neg = if n < 0 then n else -n in
  let rec width v k = if v > -10 then k else width (v / 10) (k + 1) in
  let b = Bytes.create (sign + width neg 1) in
  if n < 0 then Bytes.set b 0 '-';
  let v = ref neg in
  for i = Bytes.length b - 1 downto sign do
    Bytes.set b i (Char.unsafe_chr (48 - (!v mod 10)));
    v := !v / 10
  done;
  Bytes.unsafe_to_string b

let hex n =
  let rec width v k = if v lsr 4 = 0 then k else width (v lsr 4) (k + 1) in
  let b = Bytes.create (width n 1) in
  let v = ref n in
  for i = Bytes.length b - 1 downto 0 do
    Bytes.set b i "0123456789abcdef".[!v land 15];
    v := !v lsr 4
  done;
  Bytes.unsafe_to_string b
