"""Parameter checkpoint files.

Layout, little-endian throughout:
  magic "SSNN" | version u32 | records until EOF
  record: name_len u32 | name utf-8 | rank u32 | dims u32 * rank |
          float32 payload (row-major)

Loading into a model (restore_params) rejects both missing and unexpected
tensors, so no weight is left unset or silently dropped. Saving replaces
the file whole or not at all, so a write cut short leaves the checkpoint
saved before.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SSNN"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write the tensors to a new file beside path, named for this process,
    then rename it over path (os.replace, atomic on POSIX and Windows); on
    any failure the new file is removed and path keeps the bytes it had."""
    parts = [MAGIC, struct.pack("<I", VERSION)]
    for name, arr in tensors.items():
        encoded = name.encode("utf-8")
        arr = np.asarray(arr)
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(b"".join(parts))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    if len(data) < 8 or data[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    tensors: dict[str, np.ndarray] = {}
    pos = 8
    while pos < len(data):
        try:
            (name_len,) = struct.unpack_from("<I", data, pos)
            pos += 4
            name = data[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<I", data, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}I", data, pos)
            pos += 4 * rank
            count = int(np.prod(dims)) if rank else 1
            payload = np.frombuffer(data, dtype="<f4", count=count, offset=pos)
            pos += 4 * count
        except (struct.error, ValueError) as exc:
            raise CheckpointError(f"{path}: truncated record at byte {pos}") from exc
        tensors[name] = payload.astype(np.float64).reshape(dims)
    return tensors


def restore_params(target: dict[str, np.ndarray], loaded: dict[str, np.ndarray]) -> None:
    """Copy loaded tensors into an existing parameter dict, checking names
    and shapes."""
    missing = set(target) - set(loaded)
    if missing:
        raise CheckpointError(f"checkpoint missing tensors: {sorted(missing)}")
    unexpected = set(loaded) - set(target)
    if unexpected:
        raise CheckpointError(f"checkpoint has tensors the model lacks: {sorted(unexpected)}")
    for name, param in target.items():
        value = loaded[name]
        if value.shape != param.shape:
            raise CheckpointError(
                f"tensor {name}: shape {value.shape} does not match {param.shape}"
            )
        param[...] = value
