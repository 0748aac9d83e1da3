"""Pure-python baseline JPEG codec (sequential DCT, 8-bit, 4:4:4 / grayscale).

Makes the engine's ``jpeg`` media codec real without PIL: numpy DCT +
bit-level Huffman in plain python.  Lossy — tests pin PSNR bounds and exact
behavior on flat blocks rather than bit equality (see png_codec.py for the
lossless twin).

Encoder: RGB→YCbCr (JFIF/BT.601), 8×8 blocks (edge-replicated), orthonormal
DCT-II, Annex-K luminance/chrominance quantization tables scaled by
``quality`` (the libjpeg 1–100 curve), zigzag, DC-differential + AC
run/size coding with OPTIMAL per-image Huffman tables built by the JPEG
Annex K.2 code-length algorithm (spec-valid: the tables ship in DHT, so no
hardcoded Annex-K Huffman transcription to get subtly wrong).

Decoder: marker parse (APPn/COM skipped, DRI honored), canonical Huffman
from DHT, byte-unstuffing + restart markers, dequantize, inverse zigzag,
IDCT, YCbCr→RGB.  Scope-checked on parse: baseline SOF0 only, 8-bit, 1 or
3 components with no chroma subsampling (progressive/12-bit/subsampled
raise ValueError — the honest boundary of this baseline path).
"""

from __future__ import annotations

import struct

import numpy as np

# Annex K.1 quantization tables (natural / raster order)
_QT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], np.float64)
_QT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], np.float64)

_ZZ = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63],
    np.int64)
_UNZZ = np.argsort(_ZZ)

_D = np.zeros((8, 8))
for _u in range(8):
    _c = np.sqrt(1 / 8) if _u == 0 else np.sqrt(2 / 8)
    _D[_u] = _c * np.cos((2 * np.arange(8) + 1) * _u * np.pi / 16)


def _quality_scale(q: np.ndarray, quality: int) -> np.ndarray:
    quality = min(max(int(quality), 1), 100)
    s = 5000 / quality if quality < 50 else 200 - 2 * quality
    return np.clip(np.floor((q * s + 50) / 100), 1, 255)


def _rgb_to_ycbcr(img: np.ndarray) -> np.ndarray:
    r, g, b = img[..., 0], img[..., 1], img[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.stack([y, cb, cr], axis=-1)


def _ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    y, cb, cr = ycc[..., 0], ycc[..., 1] - 128.0, ycc[..., 2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.stack([r, g, b], axis=-1)


def _blocks(plane: np.ndarray) -> np.ndarray:
    """(H, W) → (nby, nbx, 8, 8) with edge replication to multiples of 8."""
    h, w = plane.shape
    ph, pw = -h % 8, -w % 8
    p = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    nby, nbx = p.shape[0] // 8, p.shape[1] // 8
    return p.reshape(nby, 8, nbx, 8).transpose(0, 2, 1, 3)


def _bit_size(v: np.ndarray | int) -> np.ndarray:
    a = np.abs(np.asarray(v, np.int64))
    return np.where(a == 0, 0, np.floor(np.log2(np.maximum(a, 1))).astype(np.int64) + 1)


# ------------------------------------------------------------------ Huffman

def _code_lengths(freq_in: np.ndarray) -> np.ndarray:
    """JPEG Annex K.2 optimal code lengths (≤16 bits, code point 256
    reserved so no real symbol gets the all-ones code)."""
    freq = np.zeros(257, np.int64)
    freq[:256] = freq_in
    freq[256] = 1
    codesize = np.zeros(257, np.int64)
    others = np.full(257, -1, np.int64)
    while True:
        nz = np.flatnonzero(freq > 0)
        if len(nz) <= 1:
            break
        v1 = nz[np.lexsort((-nz, freq[nz]))][0]
        nz2 = nz[nz != v1]
        v2 = nz2[np.lexsort((-nz2, freq[nz2]))][0]
        freq[v1] += freq[v2]
        freq[v2] = 0
        codesize[v1] += 1
        while others[v1] != -1:
            v1 = others[v1]
            codesize[v1] += 1
        others[v1] = v2
        codesize[v2] += 1
        while others[v2] != -1:
            v2 = others[v2]
            codesize[v2] += 1
    bits = np.zeros(33, np.int64)
    for s in codesize[codesize > 0]:
        bits[min(int(s), 32)] += 1
    # adjust_bits: fold lengths > 16 down (Annex K.2 procedure)
    i = 32
    while i > 16:
        while bits[i] > 0:
            j = i - 2
            while bits[j] == 0:
                j -= 1
            bits[i] -= 2
            bits[i - 1] += 1
            bits[j + 1] += 2
            bits[j] -= 1
        i -= 1
    nz = np.flatnonzero(bits[1:17] > 0)
    if len(nz):
        bits[nz[-1] + 1] -= 1  # drop the reserved 256 point
    out = np.zeros(17, np.int64)
    out[1:] = bits[1:17]
    return out


def _huff_spec(freq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(BITS[1..16], HUFFVAL) for the symbols with freq > 0 — canonical
    order: shorter codes to more frequent symbols, ties by symbol value."""
    bits = _code_lengths(freq)
    syms = np.flatnonzero(freq > 0)
    order = np.lexsort((syms, -freq[syms]))
    return bits, syms[order].astype(np.int64)


def _huff_encode_map(bits: np.ndarray, huffval: np.ndarray) -> dict[int, tuple[int, int]]:
    """symbol → (code, length) canonical assignment (C.2)."""
    out: dict[int, tuple[int, int]] = {}
    code, k = 0, 0
    for ln in range(1, 17):
        for _ in range(int(bits[ln])):
            out[int(huffval[k])] = (code, ln)
            code += 1
            k += 1
        code <<= 1
    return out


class _BitWriter:
    def __init__(self) -> None:
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def put(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.n += length
        while self.n >= 8:
            b = (self.acc >> (self.n - 8)) & 0xFF
            self.buf.append(b)
            if b == 0xFF:
                self.buf.append(0x00)
            self.n -= 8
        self.acc &= (1 << self.n) - 1

    def flush(self) -> None:
        if self.n:
            self.put(0x7F, 8 - self.n)  # pad with 1s per spec


def _encode_coefs(coefs: list[np.ndarray]) -> tuple[list[list[tuple[int, int, int]]], np.ndarray, np.ndarray]:
    """Per-component zigzag coef blocks → (symbol streams, dc freq, ac freq).

    Each stream item is (table_kind, symbol, extra_bits_value_packed) with
    table_kind 0=DC 1=AC; extra packed as (value << 5 | nbits)."""
    streams: list[list[tuple[int, int, int]]] = []
    dc_freq = np.zeros((2, 256), np.int64)
    ac_freq = np.zeros((2, 256), np.int64)
    for ci, zz in enumerate(coefs):
        t = 0 if ci == 0 else 1
        stream: list[tuple[int, int, int]] = []
        prev_dc = 0
        for blk in zz:
            diff = int(blk[0]) - prev_dc
            prev_dc = int(blk[0])
            s = int(_bit_size(diff))
            v = diff if diff >= 0 else diff + (1 << s) - 1
            dc_freq[t, s] += 1
            stream.append((0, s, (v << 5) | s))
            run = 0
            nz = np.flatnonzero(blk[1:])
            last = nz[-1] + 1 if len(nz) else 0
            for k in range(1, last + 1):
                a = int(blk[k])
                if a == 0:
                    run += 1
                    continue
                while run > 15:
                    ac_freq[t, 0xF0] += 1
                    stream.append((1, 0xF0, 0))
                    run -= 16
                s = int(_bit_size(a))
                v = a if a >= 0 else a + (1 << s) - 1
                sym = (run << 4) | s
                ac_freq[t, sym] += 1
                stream.append((1, sym, (v << 5) | s))
                run = 0
            if last < 63:
                ac_freq[t, 0x00] += 1
                stream.append((1, 0x00, 0))
        streams.append(stream)
    return streams, dc_freq, ac_freq


def jpeg_encode(img: np.ndarray, quality: int = 85) -> bytes:
    """(h, w) or (h, w, 1|3) uint8 → baseline JPEG bytes (4:4:4, optimal
    Huffman tables)."""
    if img.dtype != np.uint8:
        raise ValueError(f"jpeg_encode wants uint8, got {img.dtype}")
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, nc = img.shape
    if nc not in (1, 3):
        raise ValueError(f"unsupported channel count {nc}")
    planes = (_rgb_to_ycbcr(img.astype(np.float64))
              if nc == 3 else img.astype(np.float64))
    qts = [_quality_scale(_QT_LUMA, quality)]
    if nc == 3:
        qts.append(_quality_scale(_QT_CHROMA, quality))

    coefs = []
    for ci in range(nc):
        b = _blocks(planes[:, :, ci] - 128.0)
        f = _D @ b.reshape(-1, 8, 8) @ _D.T
        q = qts[min(ci, len(qts) - 1)].reshape(8, 8)
        zz = np.round(f / q).astype(np.int64).reshape(-1, 64)[:, _ZZ]
        coefs.append(zz)

    streams, dc_freq, ac_freq = _encode_coefs(coefs)
    ntab = 1 if nc == 1 else 2
    dc_specs = [_huff_spec(dc_freq[t]) for t in range(ntab)]
    ac_specs = [_huff_spec(ac_freq[t]) for t in range(ntab)]
    dc_maps = [_huff_encode_map(*s) for s in dc_specs]
    ac_maps = [_huff_encode_map(*s) for s in ac_specs]

    # interleave MCUs (4:4:4 → one block per component per MCU)
    bw = _BitWriter()
    nblocks = len(coefs[0])
    idx = [0] * nc
    pos = [0] * nc
    for _m in range(nblocks):
        for ci in range(nc):
            t = 0 if ci == 0 else min(1, ntab - 1)
            stream = streams[ci]
            i = pos[ci]
            kind, sym, packed = stream[i]
            code, ln = dc_maps[t][sym]
            bw.put(code, ln)
            if sym:
                bw.put(packed >> 5, packed & 31)
            i += 1
            while i < len(stream) and stream[i][0] == 1:
                kind, sym, packed = stream[i]
                code, ln = ac_maps[t][sym]
                bw.put(code, ln)
                nb = packed & 31
                if nb:
                    bw.put(packed >> 5, nb)
                i += 1
                if sym == 0x00:
                    break
            pos[ci] = i
    bw.flush()

    out = bytearray(b"\xff\xd8")  # SOI
    for ti, qt in enumerate(qts):
        body = bytes([ti]) + bytes(int(x) for x in qt[_ZZ])
        out += b"\xff\xdb" + struct.pack(">H", len(body) + 2) + body
    sof = bytes([8]) + struct.pack(">HH", h, w) + bytes([nc])
    for ci in range(nc):
        sof += bytes([ci + 1, 0x11, min(ci, len(qts) - 1)])
    out += b"\xff\xc0" + struct.pack(">H", len(sof) + 2) + sof
    for cls, specs in ((0, dc_specs), (1, ac_specs)):
        for ti, (bits, huffval) in enumerate(specs):
            body = bytes([(cls << 4) | ti]) + bytes(
                int(x) for x in bits[1:17]) + bytes(int(v) for v in huffval)
            out += b"\xff\xc4" + struct.pack(">H", len(body) + 2) + body
    sos = bytes([nc])
    for ci in range(nc):
        t = 0 if ci == 0 else min(1, ntab - 1)
        sos += bytes([ci + 1, (t << 4) | t])
    sos += bytes([0, 63, 0])
    out += b"\xff\xda" + struct.pack(">H", len(sos) + 2) + sos
    out += bw.buf
    out += b"\xff\xd9"  # EOI
    return bytes(out)


# ------------------------------------------------------------------ decoder

class _BitReader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.acc = 0
        self.n = 0

    def _fill(self) -> None:
        while self.n <= 24 and self.pos < len(self.data):
            b = self.data[self.pos]
            self.pos += 1
            if b == 0xFF:
                nxt = self.data[self.pos] if self.pos < len(self.data) else 0
                if nxt == 0x00:
                    self.pos += 1
                else:  # marker: behave as EOF padding
                    self.pos -= 1
                    b = 0
                    self.acc = (self.acc << 8)
                    self.n += 8
                    continue
            self.acc = (self.acc << 8) | b
            self.n += 8

    def bit(self) -> int:
        if self.n == 0:
            self._fill()
            if self.n == 0:
                return 0
        self.n -= 1
        return (self.acc >> self.n) & 1

    def bits(self, k: int) -> int:
        v = 0
        for _ in range(k):
            v = (v << 1) | self.bit()
        return v

    def align_restart(self) -> None:
        self.acc, self.n = 0, 0
        while self.pos + 1 < len(self.data) and not (
                self.data[self.pos] == 0xFF
                and 0xD0 <= self.data[self.pos + 1] <= 0xD7):
            self.pos += 1
        self.pos += 2


class _HuffTable:
    def __init__(self, bits: list[int], vals: list[int]) -> None:
        self.mincode = [0] * 17
        self.maxcode = [-1] * 17
        self.valptr = [0] * 17
        code, k = 0, 0
        for ln in range(1, 17):
            if bits[ln - 1]:
                self.valptr[ln] = k
                self.mincode[ln] = code
                code += bits[ln - 1]
                k += bits[ln - 1]
                self.maxcode[ln] = code - 1
            code <<= 1
        self.vals = vals

    def decode(self, br: _BitReader) -> int:
        code, ln = 0, 0
        while ln < 16:
            code = (code << 1) | br.bit()
            ln += 1
            if self.maxcode[ln] >= code >= self.mincode[ln]:
                return self.vals[self.valptr[ln] + code - self.mincode[ln]]
        raise ValueError("bad JPEG Huffman stream")


def _extend(v: int, s: int) -> int:
    return v if s == 0 or v >= (1 << (s - 1)) else v - (1 << s) + 1


def jpeg_decode(data: bytes) -> np.ndarray:
    """Baseline JPEG bytes → (h, w, c) uint8 (c = 1 or 3; 4:4:4 only)."""
    if data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (no SOI)")
    pos = 2
    qts: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], _HuffTable] = {}
    h = w = 0
    comps: list[tuple[int, int, int]] = []  # (id, sampling, qt)
    restart = 0
    scan = None
    while pos + 4 <= len(data):
        if data[pos] != 0xFF:
            pos += 1
            continue
        marker = data[pos + 1]
        pos += 2
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            continue
        (ln,) = struct.unpack(">H", data[pos:pos + 2])
        body = data[pos + 2:pos + ln]
        pos += ln
        if marker == 0xDB:
            bpos = 0
            while bpos < len(body):
                pq_, tq = body[bpos] >> 4, body[bpos] & 15
                if pq_ != 0:
                    raise ValueError("16-bit quant tables unsupported")
                qts[tq] = np.array(list(body[bpos + 1:bpos + 65]),
                                   np.float64)[_UNZZ]
                bpos += 65
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA,
                        0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError(
                f"SOF{marker - 0xC0}: only baseline sequential (SOF0) is "
                "supported by this pure-python path")
        elif marker == 0xC0:
            h, w = struct.unpack(">HH", body[1:5])
            nc = body[5]
            for ci in range(nc):
                cid, samp, tq = body[6 + 3 * ci:9 + 3 * ci]
                if samp != 0x11:
                    raise ValueError("chroma subsampling unsupported (4:4:4 only)")
                comps.append((cid, samp, tq))
        elif marker == 0xC4:
            bpos = 0
            while bpos < len(body):
                tc, th = body[bpos] >> 4, body[bpos] & 15
                bits = list(body[bpos + 1:bpos + 17])
                nvals = sum(bits)
                vals = list(body[bpos + 17:bpos + 17 + nvals])
                huff[(tc, th)] = _HuffTable(bits, vals)
                bpos += 17 + nvals
        elif marker == 0xDD:
            (restart,) = struct.unpack(">H", body)
        elif marker == 0xDA:
            ns = body[0]
            scan = [(body[1 + 2 * i], body[2 + 2 * i] >> 4,
                     body[2 + 2 * i] & 15) for i in range(ns)]
            ecs_start = pos
            # entropy-coded segment runs to EOI (markers inside are handled
            # by the bit reader / restart logic)
            break
    if scan is None or not comps:
        raise ValueError("no scan in JPEG")
    nc = len(comps)
    nbx, nby = -(-w // 8), -(-h // 8)
    br = _BitReader(data[ecs_start:])
    planes = [np.zeros((nby * 8, nbx * 8)) for _ in range(nc)]
    pred = [0] * nc
    tables = []
    for cid, td, ta in scan:
        tables.append((huff[(0, td)], huff[(1, ta)]))
    qt_of = [qts[c[2]] for c in comps]
    mcu = 0
    for by in range(nby):
        for bx in range(nbx):
            if restart and mcu and mcu % restart == 0:
                br.align_restart()
                pred = [0] * nc
            mcu += 1
            for ci in range(nc):
                dct, act = tables[ci]
                s = dct.decode(br)
                diff = _extend(br.bits(s), s) if s else 0
                pred[ci] += diff
                zz = np.zeros(64, np.int64)
                zz[0] = pred[ci]
                k = 1
                while k < 64:
                    rs = act.decode(br)
                    if rs == 0x00:
                        break
                    r, s = rs >> 4, rs & 15
                    if rs == 0xF0:
                        k += 16
                        continue
                    k += r
                    if k > 63:
                        raise ValueError("AC index overflow")
                    zz[k] = _extend(br.bits(s), s)
                    k += 1
                coef = (zz[_UNZZ].astype(np.float64).reshape(8, 8)
                        * qt_of[ci].reshape(8, 8))
                blk = _D.T @ coef @ _D + 128.0
                planes[ci][by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8] = blk
    img = np.stack([p[:h, :w] for p in planes], axis=-1)
    if nc == 3:
        img = _ycbcr_to_rgb(img)
    return np.clip(np.round(img), 0, 255).astype(np.uint8)


# ---- MJPEG (r5): video as a sequence of baseline JPEG frames ---------------
# The classic intra-only video codec (AVI 'MJPG' streams are exactly this
# payload with container framing).  Closes the "video path exercises a real
# codec" gap: every frame round-trips through the real encoder/decoder above;
# inter-frame codecs (h264) stay honestly stubbed.

def mjpeg_encode(frames: "np.ndarray", quality: int = 90) -> bytes:
    """(n_frames, h, w, c) uint8 → concatenated JPEG frames."""
    if frames.ndim != 4:
        raise ValueError("mjpeg_encode expects (n_frames, h, w, c)")
    return b"".join(jpeg_encode(frames[j], quality=quality)
                    for j in range(frames.shape[0]))


def mjpeg_split(data: bytes) -> list[bytes]:
    """Split concatenated JPEG frames on their own structure — a real
    segment walk (marker lengths + entropy-scan with 0xFF00 stuffing and
    RST handling), NOT a naive FFD8/FFD9 byte search (those byte pairs
    occur inside entropy-coded data)."""
    frames: list[bytes] = []
    n = len(data)
    pos = 0
    while pos < n:
        if data[pos:pos + 2] != b"\xff\xd8":
            raise ValueError(f"mjpeg: expected SOI at byte {pos}")
        start = pos
        p = pos + 2
        while True:
            if p + 2 > n:
                raise ValueError("mjpeg: truncated frame (no EOI)")
            if data[p] != 0xFF:
                raise ValueError(f"mjpeg: expected marker at byte {p}")
            m = data[p + 1]
            if m == 0xFF:                      # fill byte before a marker
                p += 1
                continue
            if m == 0xD9:                      # EOI — frame complete
                p += 2
                break
            if m == 0x01 or 0xD0 <= m <= 0xD8:  # standalone markers
                p += 2
                continue
            if p + 4 > n:
                raise ValueError("mjpeg: truncated segment header")
            ln = int.from_bytes(data[p + 2:p + 4], "big")
            seg_end = p + 2 + ln
            if m == 0xDA:                      # SOS: scan entropy data
                q = seg_end
                while True:
                    idx = data.find(b"\xff", q)
                    if idx < 0 or idx + 1 >= n:
                        raise ValueError("mjpeg: truncated scan")
                    nm = data[idx + 1]
                    if nm == 0x00 or 0xD0 <= nm <= 0xD7:  # stuffing / RST
                        q = idx + 2
                        continue
                    p = idx                    # real marker (EOI/next seg)
                    break
            else:
                p = seg_end
        frames.append(data[start:p])
        pos = p
    return frames
