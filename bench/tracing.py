"""Spans around the package's public functions, installed from outside it.

A :class:`Tracer` replaces each traced name at every place its callers look it
up: the defining module and every ``emospeaker`` module that imported it by
name (``sphmm`` calls its own imported ``log_forward``, ``protocol`` its own
``fused_log_score``, ...). Methods are replaced on their class. Spans are
kept in memory as (name, start, end, parent, extra) and written out once,
when the run ends. A name that no longer exists is skipped and listed in
:attr:`Tracer.absent`, so its metrics are reported absent instead of failing.
"""

import contextlib
import functools
import json
import sys
import time

# layer name -> (module, attribute path); "Class.method" patches the class.
TARGETS = {
    "corpus.generate_synthetic_corpus": ("emospeaker.corpus", "generate_synthetic_corpus"),
    "corpus.read_feature_file": ("emospeaker.corpus", "read_feature_file"),
    "corpus.read_audio": ("emospeaker.corpus", "read_audio"),
    "corpus.write_feature_file": ("emospeaker.corpus", "write_feature_file"),
    "dsp.lfpc_sequence": ("emospeaker.dsp", "lfpc_sequence"),
    "prosody.suprasegmental_sequence": ("emospeaker.prosody", "suprasegmental_sequence"),
    "features.load_observation": ("emospeaker.features", "load_observation"),
    "features.extract_corpus": ("emospeaker.features", "extract_corpus"),
    "hmm.emission": ("emospeaker.hmm", "GaussianMixture.component_log_pdf"),
    "hmm.log_forward": ("emospeaker.hmm", "log_forward"),
    "hmm.init_model": ("emospeaker.hmm", "init_model"),
    "hmm.baum_welch_train": ("emospeaker.hmm", "baum_welch_train"),
    "sphmm.train_speaker_model": ("emospeaker.sphmm", "train_speaker_model"),
    "sphmm.fused_log_score": ("emospeaker.sphmm", "fused_log_score"),
    "protocol.train_population": ("emospeaker.protocol", "train_population"),
    "protocol.identify": ("emospeaker.protocol", "identify"),
    "protocol.run_session": ("emospeaker.protocol", "run_session"),
}


def _analysed_frames(args, kwargs) -> int:
    samples, sample_rate = args[0], args[1]
    frame_length = int(round(sample_rate * kwargs.get("window_ms", 30.0) / 1000.0))
    hop = int(round(sample_rate * kwargs.get("hop_ms", 5.0) / 1000.0))
    return max((len(samples) - frame_length) // hop + 1, 0)


def _em_extra(args, kwargs, result):
    iterations = len(result.log_likelihoods)
    frames = sum(len(s) for s in args[1])
    return {"iterations": iterations, "frames": frames * iterations}


# layer name -> extra(args, kwargs, result) -> dict of counts summed per layer
EXTRAS = {
    "corpus.read_feature_file": lambda a, k, r: {"bytes": 20 + r.nbytes},
    "dsp.lfpc_sequence": lambda a, k, r: {"frames": len(r)},
    "prosody.suprasegmental_sequence": lambda a, k, r: {"frames": _analysed_frames(a, k)},
    "hmm.emission": lambda a, k, r: {"frames": len(r)},
    "hmm.log_forward": lambda a, k, r: {"frames": len(a[1])},
    "hmm.baum_welch_train": _em_extra,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) or None when the name is gone."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


def _unwrap(fn):
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


class Patches:
    """Replaces a function at each of its lookup sites; :meth:`restore` undoes it."""

    def __init__(self):
        self._undo = []

    def wrap(self, module_name: str, path: str, make_wrapper) -> bool:
        found = _resolve(module_name, path)
        if found is None:
            return False
        owner, attr, current = found
        if "." in path:  # a method: callers find it through the class
            sites = [(owner, attr, current)]
        else:
            original = _unwrap(current)
            sites = [
                (module, name, value)
                for mod_name, module in sorted(sys.modules.items())
                if mod_name == "emospeaker" or mod_name.startswith("emospeaker.")
                for name, value in sorted(vars(module).items())
                if callable(value) and _unwrap(value) is original
            ]
        for site, name, value in sites:
            setattr(site, name, make_wrapper(value))
            self._undo.append((site, name, value))
        return True

    def restore(self) -> None:
        while self._undo:
            site, name, value = self._undo.pop()
            setattr(site, name, value)


class Tracer:
    """In-memory spans for the layers in :data:`TARGETS`."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start, end, parent index, extra)
        self.absent: list[str] = []
        self._index: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches = Patches()

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_index(name), time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, span: int) -> None:
        self.spans[span][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one of its phases."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _traced(self, name: str, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extra is not None:
                self.spans[span][4] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for name, (module_name, path) in TARGETS.items():
            if not self._patches.wrap(module_name, path, functools.partial(self._traced, name)):
                if name not in self.absent:
                    self.absent.append(name)

    def uninstall(self) -> None:
        self._patches.restore()

    def mark(self) -> int:
        """Position in the span list, to aggregate the spans recorded after it."""
        return len(self.spans)

    def totals(self, ranges: list[tuple[int, int]]) -> dict[str, dict]:
        """Per layer: calls, inclusive seconds, self seconds and summed extras.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly in one thread, so children never overlap.
        """
        child_time: dict[int, float] = {}
        chosen = [i for lo, hi in ranges for i in range(lo, hi)]
        for i in chosen:
            _, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict] = {}
        for i in chosen:
            name_index, start, end, _, extra = self.spans[i]
            entry = out.setdefault(self.names[name_index], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time.get(i, 0.0)
            for key, value in (extra or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name_index, start, end, parent, extra in self.spans:
                record = {"name": self.names[name_index], "start": start, "end": end, "parent": parent}
                if extra:
                    record.update(extra)
                fh.write(json.dumps(record) + "\n")
