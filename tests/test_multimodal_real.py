"""backend="real" multimodal codecs (VERDICT r02 #5): stdlib PNG / PCM-WAV
decoding behind the Pillow / soundfile import guards, with round-trip tests
on payloads generated in-process (no binary fixtures, no network)."""

import io
import struct
import wave
import zlib

import numpy as np
import pyarrow as pa
import pytest

from timberjack_ray.functions.multimodal import (AudioFeaturizer,
                                                 FrameSampler, ImageDecoder,
                                                 decode_png, decode_wav,
                                                 encode_png)


def _rand_img(h, w, ch, seed=0):
    return np.random.RandomState(seed).randint(0, 256, (h, w, ch), np.uint8)


def test_png_roundtrip_filter0():
    img = _rand_img(8, 6, 3)
    assert np.array_equal(decode_png(encode_png(img)), img)


def test_png_roundtrip_gray_and_rgba():
    g = _rand_img(5, 7, 1, seed=1)
    assert np.array_equal(decode_png(encode_png(g)), g)
    rgba = _rand_img(4, 4, 4, seed=2)
    assert np.array_equal(decode_png(encode_png(rgba)), rgba)


def _png_with_filters(img: np.ndarray, ftypes: list[int]) -> bytes:
    """Build a PNG whose row y uses filter ftypes[y] — exercises the
    decoder's unfiltering for Sub/Up/Average/Paeth, which the filter-0
    encoder never emits."""
    h, w, ch = img.shape
    bpp = ch
    raw = bytearray()
    prev = np.zeros(w * ch, np.uint8)
    for y, ft in enumerate(ftypes):
        line = img[y].reshape(-1)
        out = np.zeros_like(line)
        for i in range(len(line)):
            a = int(line[i - bpp]) if i >= bpp else 0
            b = int(prev[i])
            c = int(prev[i - bpp]) if i >= bpp else 0
            if ft == 0:
                pred = 0
            elif ft == 1:
                pred = a
            elif ft == 2:
                pred = b
            elif ft == 3:
                pred = (a + b) >> 1
            else:
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc_) else (b if pb <= pc_ else c)
            out[i] = (int(line[i]) - pred) & 0xFF
        raw.append(ft)
        raw.extend(out.tobytes())
        prev = line
    color = {1: 0, 3: 2, 4: 6}[ch]

    def chunk(ctype, payload):
        c = ctype + payload
        return struct.pack(">I", len(payload)) + c + struct.pack(
            ">I", zlib.crc32(c) & 0xFFFFFFFF)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(bytes(raw))) + chunk(b"IEND", b""))


def test_png_unfilters_all_filter_types():
    img = _rand_img(5, 6, 3, seed=3)
    data = _png_with_filters(img, [1, 2, 3, 4, 0])
    assert np.array_equal(decode_png(data), img)


def test_png_rejects_garbage():
    with pytest.raises(ValueError):
        decode_png(b"not a png at all")


def _wav_bytes(x: np.ndarray, sr: int, nch: int = 1) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(nch)
        wf.setsampwidth(2)
        wf.setframerate(sr)
        wf.writeframes((x * 32767).astype(np.int16).tobytes())
    return buf.getvalue()


def test_wav_roundtrip_mono():
    sr = 8000
    t = np.arange(sr // 10) / sr
    x = np.sin(2 * np.pi * 440 * t).astype(np.float32)
    wav, got_sr = decode_wav(_wav_bytes(x, sr))
    assert got_sr == sr and len(wav) == len(x)
    assert np.abs(wav - x).max() < 1e-3  # int16 quantization only


def test_wav_stereo_downmixes_to_mono():
    sr = 8000
    left = np.full(100, 0.5, np.float32)
    right = np.full(100, -0.5, np.float32)
    inter = np.empty(200, np.float32)
    inter[0::2], inter[1::2] = left, right
    wav, _ = decode_wav(_wav_bytes(inter, sr, nch=2))
    assert len(wav) == 100 and np.abs(wav).max() < 1e-3  # L/R cancel


def _media_table(payloads, media_type):
    n = len(payloads)
    return pa.table({
        "media_id": pa.array([f"m-{i}" for i in range(n)]),
        "payload": pa.array(payloads, pa.binary()),
        "media_type": pa.array([media_type] * n),
        "width": pa.array([0] * n, pa.int32()),
        "height": pa.array([0] * n, pa.int32()),
        "sample_rate": pa.array([0] * n, pa.int32()),
        "n_frames": pa.array([1] * n, pa.int32()),
    })


def test_image_decoder_real_backend_stage():
    # solid-colour PNGs → exact pixel means; RGBA drops alpha; grey expands
    solid = np.full((8, 8, 3), 200, np.uint8)
    rgba = np.dstack([np.full((4, 4, 3), 100, np.uint8),
                      np.full((4, 4, 1), 7, np.uint8)])
    grey = np.full((6, 6, 1), 50, np.uint8)
    t = _media_table([encode_png(solid), encode_png(rgba), encode_png(grey)],
                     "image/png")
    out = ImageDecoder(backend="real", resize_to=(4, 4))(t)
    assert out["pixel_mean"].to_pylist() == [200.0, 100.0, 50.0]
    assert out["pixel_std"].to_pylist() == [0.0, 0.0, 0.0]
    thumb = np.asarray(out["thumbnail"].combine_chunks().flatten())
    assert len(thumb) == 3 * 4 * 4 * 3


def test_audio_featurizer_real_backend_stage():
    sr = 16000
    x = np.sin(2 * np.pi * 440 * np.arange(sr // 4) / sr).astype(np.float32)
    t = _media_table([_wav_bytes(x, sr)], "audio/wav")
    out = AudioFeaturizer(backend="real")(t)
    assert out["duration_s"][0].as_py() == pytest.approx(0.25)
    assert out["rms"][0].as_py() == pytest.approx(1 / np.sqrt(2), rel=1e-2)
    assert out["zcr"][0].as_py() == pytest.approx(2 * 440 / sr, rel=0.05)


def test_real_backends_end_to_end_actor_pool(ray_session):
    import ray.data as rd

    from timberjack_ray.functions.multimodal import (audio_features,
                                                     decode_images)

    imgs = [encode_png(np.full((8, 8, 3), v, np.uint8)) for v in (10, 20, 30)]
    out = decode_images(rd.from_arrow(_media_table(imgs, "image/png")),
                        backend="real").to_pandas()
    assert sorted(out["pixel_mean"]) == [10.0, 20.0, 30.0]

    sr = 8000
    wavs = [_wav_bytes(np.zeros(sr // 10, np.float32), sr)]
    aout = audio_features(rd.from_arrow(_media_table(wavs, "audio/wav")),
                          backend="real").to_pandas()
    assert aout["duration_s"].tolist() == [pytest.approx(0.1)]
    assert aout["rms"].tolist() == [0.0]


def test_frame_sampler_real_rejects_non_avi():
    """backend='real' now extracts MJPEG-AVI frames (no codec needed);
    non-container payloads fail loudly instead of raising at init."""
    import pyarrow as pa

    t = pa.table({"media_id": [1], "payload": [b"not a container"]})
    with pytest.raises(ValueError, match="RIFF"):
        FrameSampler(backend="real")(t)


def _make_mjpeg_avi(frames: list[bytes]) -> bytes:
    """Minimal RIFF/AVI: one 'movi' LIST holding one '00dc' chunk per
    frame (word-aligned), as a real MJPEG-AVI muxer lays them out."""
    import struct

    body = b"movi"
    for fr in frames:
        body += b"00dc" + struct.pack("<I", len(fr)) + fr
        if len(fr) & 1:
            body += b"\x00"
    movi = b"LIST" + struct.pack("<I", len(body)) + body
    riff_body = b"AVI " + movi
    return b"RIFF" + struct.pack("<I", len(riff_body)) + riff_body


def test_frame_sampler_real_mjpeg_avi(ray_session):
    import numpy as np
    import pyarrow as pa
    import pytest

    from timberjack_ray.functions.multimodal import (FrameSampler,
                                                     _avi_mjpeg_frames)

    frames = [b"\xff\xd8JPEG%d\xff\xd9" % i for i in range(5)]
    avi = _make_mjpeg_avi(frames)
    assert _avi_mjpeg_frames(avi) == frames

    t = pa.table({"media_id": [7], "payload": [avi]})
    out = FrameSampler(max_frames=3, backend="real")(t).to_pandas()
    # uniform 3-of-5 sample: indices 0, 2, 4 with the exact frame bytes
    assert out["frame_idx"].tolist() == [0, 2, 4]
    assert out["frame_bytes"].tolist() == [frames[0], frames[2], frames[4]]
    assert (out["media_id"] == 7).all()

    with pytest.raises(ValueError, match="RIFF"):
        _avi_mjpeg_frames(b"not an avi at all")

    # fake backend unchanged: metadata-only plumbing
    t2 = pa.table({"media_id": [1], "n_frames": [10]})
    out2 = FrameSampler(max_frames=2)(t2).to_pandas()
    assert out2["frame_idx"].tolist() == [0, 9]


def _box(typ: bytes, payload: bytes) -> bytes:
    import struct
    return struct.pack(">I", 8 + len(payload)) + typ + payload


def _make_mjpeg_mp4(frames: list[bytes], co64: bool = False) -> bytes:
    """Minimal ISO BMFF: ftyp + mdat(samples) + moov/trak/mdia/minf/stbl
    with stsz (per-sample sizes), stsc (one run), stco or co64 (one
    chunk) — the layout a real MP4 muxer produces for one video track."""
    import struct

    ftyp = _box(b"ftyp", b"isom" + struct.pack(">I", 512) + b"isomiso2")
    mdat_payload = b"".join(frames)
    mdat = _box(b"mdat", mdat_payload)
    mdat_body_off = len(ftyp) + 8           # absolute offset of samples

    stsz = _box(b"stsz", struct.pack(">III", 0, 0, len(frames))
                + b"".join(struct.pack(">I", len(f)) for f in frames))
    stsc = _box(b"stsc", struct.pack(">II", 0, 1)
                + struct.pack(">III", 1, len(frames), 1))
    if co64:
        stco = _box(b"co64", struct.pack(">II", 0, 1)
                    + struct.pack(">Q", mdat_body_off))
    else:
        stco = _box(b"stco", struct.pack(">II", 0, 1)
                    + struct.pack(">I", mdat_body_off))
    stbl = _box(b"stbl", stsz + stsc + stco)
    minf = _box(b"minf", stbl)
    hdlr = _box(b"hdlr", struct.pack(">II", 0, 0) + b"vide"
                + b"\x00" * 12 + b"VideoHandler\x00")
    mdia = _box(b"mdia", hdlr + minf)
    trak = _box(b"trak", mdia)
    moov = _box(b"moov", trak)
    return ftyp + mdat + moov


def test_mp4_sample_extraction_and_frame_sampler(ray_session):
    import pyarrow as pa

    from timberjack_ray.functions.multimodal import (FrameSampler,
                                                     _mp4_video_samples)

    frames = [b"\xff\xd8MP4FRAME%d\xff\xd9" % i for i in range(6)]
    mp4 = _make_mjpeg_mp4(frames)
    assert _mp4_video_samples(mp4) == frames
    # 64-bit chunk offsets too
    assert _mp4_video_samples(_make_mjpeg_mp4(frames, co64=True)) == frames

    t = pa.table({"media_id": [3], "payload": [mp4]})
    out = FrameSampler(max_frames=3, backend="real")(t).to_pandas()
    assert out["frame_idx"].tolist() == [0, 2, 5]
    assert out["frame_bytes"].tolist() == [frames[0], frames[2], frames[5]]

    # mixed container batch: AVI and MP4 rows through one stage
    avi = _make_mjpeg_avi(frames[:3])
    t2 = pa.table({"media_id": [1, 2], "payload": [avi, mp4]})
    out2 = FrameSampler(max_frames=2, backend="real")(t2).to_pandas()
    assert out2[out2["media_id"] == 1]["frame_idx"].tolist() == [0, 2]
    assert out2[out2["media_id"] == 2]["frame_idx"].tolist() == [0, 5]


def test_mp4_extraction_rejections():
    import struct

    import pytest

    from timberjack_ray.functions.multimodal import (_container_frames,
                                                     _mp4_video_samples)

    with pytest.raises(ValueError, match="ftyp"):
        _mp4_video_samples(b"\x00" * 64)
    # ftyp but no moov
    ftyp = _box(b"ftyp", b"isom" + struct.pack(">I", 512))
    with pytest.raises(ValueError, match="moov"):
        _mp4_video_samples(ftyp)
    # audio-only track: hdlr != vide
    hdlr = _box(b"hdlr", struct.pack(">II", 0, 0) + b"soun" + b"\x00" * 12)
    moov = _box(b"moov", _box(b"trak", _box(b"mdia", hdlr)))
    with pytest.raises(ValueError, match="vide"):
        _mp4_video_samples(ftyp + moov)
    with pytest.raises(ValueError, match="container"):
        _container_frames(b"GIF89a not a video")


def test_mkv_extraction_and_frame_sampler(ray_session):
    """Round 5: Matroska/WebM EBML extraction — mux round-trip, WebM
    doctype, BlockGroup form, dispatch and the FrameSampler stage."""
    import pyarrow as pa

    from timberjack_ray.functions.multimodal import (FrameSampler,
                                                     _container_frames,
                                                     _ebml_elem,
                                                     _mkv_video_samples,
                                                     mux_mjpeg_mkv)

    frames = [b"\xff\xd8MKVFRAME%d\xff\xd9" % i for i in range(5)]
    mkv = mux_mjpeg_mkv(frames)
    assert _mkv_video_samples(mkv) == frames
    assert _container_frames(mkv) == frames
    assert _mkv_video_samples(mux_mjpeg_mkv(frames, doctype=b"webm")) \
        == frames

    # BlockGroup->Block form (the non-Simple variant) parses too
    header = _ebml_elem(0x1A45DFA3, _ebml_elem(0x4282, b"matroska"))
    entry = _ebml_elem(0xAE, _ebml_elem(0xD7, b"\x01")
                       + _ebml_elem(0x83, b"\x01")
                       + _ebml_elem(0x86, b"V_MJPEG"))
    tracks = _ebml_elem(0x1654AE6B, entry)
    grp = b"".join(_ebml_elem(0xA0, _ebml_elem(
        0xA1, b"\x81\x00\x00\x00" + fr)) for fr in frames)
    cluster = _ebml_elem(0x1F43B675, _ebml_elem(0xE7, b"\x00") + grp)
    mkv_bg = header + _ebml_elem(0x18538067, tracks + cluster)
    assert _mkv_video_samples(mkv_bg) == frames

    t = pa.table({"media_id": [7], "payload": [mkv]})
    out = FrameSampler(max_frames=3, backend="real")(t).to_pandas()
    assert out["frame_idx"].tolist() == [0, 2, 4]
    assert out["frame_bytes"].tolist() == [frames[0], frames[2], frames[4]]


def test_mkv_extraction_rejections():
    import pytest

    from timberjack_ray.functions.multimodal import (_ebml_elem,
                                                     _mkv_video_samples,
                                                     mux_mjpeg_mkv)

    with pytest.raises(ValueError, match="EBML"):
        _mkv_video_samples(b"\x00" * 32)
    # EBML header but no Segment
    with pytest.raises(ValueError, match="Segment"):
        _mkv_video_samples(_ebml_elem(0x1A45DFA3,
                                      _ebml_elem(0x4282, b"matroska")))
    # audio-only TrackEntry (TrackType 2)
    header = _ebml_elem(0x1A45DFA3, _ebml_elem(0x4282, b"matroska"))
    entry = _ebml_elem(0xAE, _ebml_elem(0xD7, b"\x01")
                       + _ebml_elem(0x83, b"\x02"))
    seg = _ebml_elem(0x18538067, _ebml_elem(0x1654AE6B, entry))
    with pytest.raises(ValueError, match="video track"):
        _mkv_video_samples(header + seg)
    # laced SimpleBlock refused
    frames = [b"\xff\xd8A\xff\xd9"]
    mkv = mux_mjpeg_mkv(frames)
    laced = mkv.replace(b"\x81\x00\x00\x80", b"\x81\x00\x00\x86", 1)
    with pytest.raises(ValueError, match="laced"):
        _mkv_video_samples(laced)
    # SimpleBlock cut inside its 3-byte timecode/flags header
    video = _ebml_elem(0xAE, _ebml_elem(0xD7, b"\x01")
                       + _ebml_elem(0x83, b"\x01"))
    cluster = _ebml_elem(0x1F43B675, _ebml_elem(0xE7, b"\x00")
                         + _ebml_elem(0xA3, b"\x81\x00\x00"))
    truncated = header + _ebml_elem(
        0x18538067, _ebml_elem(0x1654AE6B, video) + cluster)
    with pytest.raises(ValueError, match="truncated Matroska block"):
        _mkv_video_samples(truncated)


def test_mkv_unknown_size_segment():
    """Streaming-muxer convention: an all-ones Segment size extends to
    EOF; the walker must still find Tracks and Clusters."""
    from timberjack_ray.functions.multimodal import (_ebml_elem,
                                                     _mkv_video_samples,
                                                     mux_mjpeg_mkv)

    frames = [b"\xff\xd8S%d\xff\xd9" % i for i in range(3)]
    mkv = mux_mjpeg_mkv(frames)
    # rebuild with Segment size = unknown (0x01 FF..FF, 8 octets)
    header = _ebml_elem(0x1A45DFA3, _ebml_elem(0x4282, b"matroska"))
    seg_body = mkv[len(header):]
    # strip the segment id+size and re-emit with the unknown-size marker
    sid = b"\x18\x53\x80\x67"
    assert seg_body[:4] == sid
    # size vint length: leading byte of mux output size
    b0 = seg_body[4]
    ln = 9 - b0.bit_length()
    inner = seg_body[4 + ln:]
    unk = sid + b"\x01" + b"\xff" * 7 + inner
    assert _mkv_video_samples(header + unk) == frames
