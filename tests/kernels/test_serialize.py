"""Tests for trace and result serialization."""

import base64
import json

import pytest

from repro.errors import KernelError
from repro.isa import WritebackHint, parse_program
from repro.kernels.serialize import (
    FORMAT_VERSION,
    load_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)
from repro.kernels.suites import build_benchmark_trace
from repro.kernels.trace import KernelTrace, WarpTrace


def small_trace():
    program = parse_program("""
        mov.u32 $r1, 0x1
        add.u32 $r2, $r1, $r1
        set.ne.s32.s32 $p0/$o127, $r1, $r2
        @$p0 st.global.u32 [$r3], $r2
        exit
    """)
    return KernelTrace(name="small", warps=[
        WarpTrace(0, list(program)),
        WarpTrace(1, list(program)),
    ])


class TestRoundtrip:
    def test_structure_preserved(self):
        trace = small_trace()
        back = trace_from_dict(trace_to_dict(trace))
        assert back.name == "small"
        assert back.num_warps == 2
        for original, loaded in zip(trace, back):
            assert len(original) == len(loaded)
            for a, b in zip(original, loaded):
                assert a.opcode.name == b.opcode.name
                assert a.dest == b.dest
                assert a.sources == b.sources
                assert a.immediate == b.immediate
                assert a.predicate == b.predicate
                assert a.pred_dest == b.pred_dest
                assert a.hint == b.hint

    def test_hints_preserved(self):
        program = [
            inst.with_hint(WritebackHint.OC_ONLY) if inst.dest else inst
            for inst in parse_program("mov.u32 $r1, 0x1\nexit")
        ]
        trace = KernelTrace(name="h", warps=[WarpTrace(0, program)])
        back = trace_from_dict(trace_to_dict(trace))
        assert back.warps[0][0].hint is WritebackHint.OC_ONLY

    def test_shared_instructions_stay_shared(self):
        # Loop-expanded traces reference the same static instruction
        # many times; the pool keeps that sharing.
        trace = build_benchmark_trace("BFS", num_warps=2, scale=0.1)
        data = trace_to_dict(trace)
        assert len(data["pool"]) < trace.total_instructions
        back = trace_from_dict(data)
        uids = {}
        for warp_in, warp_out in zip(trace, back):
            for inst_in, inst_out in zip(warp_in, warp_out):
                uids.setdefault(inst_in.uid, set()).add(inst_out.uid)
        # Every original uid maps to exactly one reloaded uid.
        assert all(len(mapped) == 1 for mapped in uids.values())

    def test_file_roundtrip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        back = load_trace(path)
        assert back.total_instructions == trace.total_instructions

    def test_simulations_agree_after_reload(self, tmp_path):
        from repro.core.bow_sm import simulate_design

        trace = build_benchmark_trace("NW", num_warps=3, scale=0.1)
        path = tmp_path / "nw.json"
        save_trace(trace, path)
        reloaded = load_trace(path)
        first = simulate_design("bow", trace, memory_seed=4)
        second = simulate_design("bow", reloaded, memory_seed=4)
        assert first.counters.cycles == second.counters.cycles
        assert first.memory_image == second.memory_image


class TestErrors:
    def test_version_checked(self):
        data = trace_to_dict(small_trace())
        data["version"] = FORMAT_VERSION + 1
        with pytest.raises(KernelError):
            trace_from_dict(data)

    def test_malformed_record(self):
        with pytest.raises(KernelError):
            trace_from_dict({"version": FORMAT_VERSION, "name": "x",
                             "pool": [{}], "warps": []})

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(KernelError):
            load_trace(path)

    def test_bad_pool_index(self):
        data = trace_to_dict(small_trace())
        data["warps"][0]["instructions"] = [999]
        with pytest.raises(KernelError):
            trace_from_dict(data)


class TestResultRoundTrip:
    def _run(self):
        from repro.core.bow_sm import simulate_design

        trace = build_benchmark_trace("NW", num_warps=2, scale=0.1)
        return simulate_design("bow", trace, window_size=3, memory_seed=4)

    def test_dict_round_trip_equality(self):
        from repro.kernels.serialize import result_from_dict, result_to_dict

        result = self._run()
        assert result_from_dict(result_to_dict(result)) == result

    def test_file_round_trip_equality(self, tmp_path):
        from repro.kernels.serialize import load_result, save_result

        result = self._run()
        path = tmp_path / "run.json"
        save_result(result, path)
        assert load_result(path) == result

    def test_encoding_is_canonical(self):
        import json

        from repro.kernels.serialize import result_to_dict

        result = self._run()
        assert (json.dumps(result_to_dict(result))
                == json.dumps(result_to_dict(self._run())))

    def test_version_checked(self):
        from repro.kernels.serialize import (
            RESULT_FORMAT_VERSION,
            result_from_dict,
            result_to_dict,
        )

        data = result_to_dict(self._run())
        data["version"] = RESULT_FORMAT_VERSION + 1
        with pytest.raises(KernelError):
            result_from_dict(data)

    def test_unknown_counter_rejected(self):
        from repro.kernels.serialize import result_from_dict, result_to_dict

        data = result_to_dict(self._run())
        data["counters"]["flux_capacitor"] = 1
        with pytest.raises(KernelError):
            result_from_dict(data)

    def test_not_json(self, tmp_path):
        from repro.kernels.serialize import load_result

        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(KernelError):
            load_result(path)


def _scorecard_points():
    from repro.kernels.suites import benchmark_names

    return [(name, design) for name in benchmark_names()
            for design in ("baseline", "bow-wr")]


class TestPackedResultFormat:
    """Format 2: images as base64 little-endian uint32 words."""

    @staticmethod
    def _scale(**overrides):
        from repro.experiments.runner import RunScale

        return RunScale(**{"num_warps": 4, "trace_scale": 0.1, **overrides})

    @staticmethod
    def _assert_round_trip(result):
        from repro.kernels.serialize import result_from_dict, result_to_dict

        back = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert back.counters == result.counters
        assert back.register_image == result.register_image
        assert back.memory_image == result.memory_image
        assert back == result

    @pytest.mark.parametrize("name,design", _scorecard_points())
    def test_round_trip_every_benchmark(self, name, design):
        from repro.experiments.runner import execute_run

        self._assert_round_trip(
            execute_run(name, design, scale=self._scale()))

    def test_round_trip_device_result(self):
        from repro.experiments.runner import execute_run

        result = execute_run("NW", "bow", scale=self._scale(
            num_warps=8, num_sms=2))
        # Merged across both SMs: every launched warp has registers.
        assert {warp for warp, _ in result.register_image} == set(range(8))
        self._assert_round_trip(result)

    def test_text_is_canonical_under_insertion_order(self):
        from repro.gpu.sm import SimulationResult
        from repro.kernels.serialize import result_to_dict
        from repro.stats.counters import Counters

        registers = {(w, r): w * 1000 + r for w in range(3) for r in range(5)}
        memory = {address: address ^ 0xFFFF for address in range(0, 64, 4)}
        texts = set()
        for order in (sorted, lambda keys: sorted(keys, reverse=True),
                      lambda keys: sorted(keys, key=hash)):
            texts.add(json.dumps(result_to_dict(SimulationResult(
                counters=Counters(cycles=7),
                register_image={k: registers[k] for k in order(registers)},
                memory_image={k: memory[k] for k in order(memory)},
            ))))
        assert len(texts) == 1

    def _data(self):
        from repro.core.bow_sm import simulate_design
        from repro.kernels.serialize import result_to_dict

        trace = build_benchmark_trace("NW", num_warps=2, scale=0.1)
        return result_to_dict(simulate_design("bow", trace, memory_seed=4))

    @pytest.mark.parametrize("field,payload", [
        ("registers", "AAAA*AAA"),
        ("memory", "AAAAAAAAAA!="),
        ("registers", base64.b64encode(bytes(13)).decode("ascii")),
        ("memory", base64.b64encode(bytes(12)).decode("ascii")),
        ("registers", [[0, 1, 2]]),
        ("memory", [[4, 5]]),
    ], ids=["non-base64-registers", "non-base64-memory",
            "registers-13-bytes", "memory-12-bytes",
            "v1-registers", "v1-memory"])
    def test_malformed_image_rejected(self, field, payload):
        from repro.kernels.serialize import (
            RESULT_FORMAT_VERSION,
            result_from_dict,
        )

        data = self._data()
        assert data["version"] == RESULT_FORMAT_VERSION == 2
        data[field] = payload
        with pytest.raises(KernelError):
            result_from_dict(data)

    @pytest.mark.parametrize("field", ["version", "counters", "registers",
                                       "memory"])
    def test_missing_field_rejected(self, field):
        from repro.kernels.serialize import result_from_dict

        data = self._data()
        del data[field]
        with pytest.raises(KernelError):
            result_from_dict(data)

    @pytest.mark.parametrize("payload", [[], "text", None])
    def test_non_object_rejected(self, payload):
        from repro.kernels.serialize import result_from_dict

        with pytest.raises(KernelError):
            result_from_dict(payload)

    @pytest.mark.parametrize("image", ["register_image", "memory_image"])
    @pytest.mark.parametrize("word", [2 ** 32, -1])
    def test_out_of_range_word_rejected(self, image, word):
        from repro.gpu.sm import SimulationResult
        from repro.kernels.serialize import result_to_dict
        from repro.stats.counters import Counters

        images = {"register_image": {(0, 1): 5}, "memory_image": {8: 9}}
        images[image] = ({(0, 1): word} if image == "register_image"
                         else {8: word})
        with pytest.raises(KernelError):
            result_to_dict(SimulationResult(counters=Counters(), **images))

    def test_corrupt_cache_entry_is_a_counted_miss(self, tmp_path):
        from repro.experiments.cache import RunCache
        from repro.gpu.sm import SimulationResult
        from repro.stats.counters import Counters

        cache = RunCache(tmp_path / "runs")
        key = "ab" + "0" * 62
        cache.put(key, SimulationResult(
            counters=Counters(cycles=3), register_image={(0, 1): 2},
            memory_image={4: 5}))
        path = cache._path(key)
        data = json.loads(path.read_text())
        data["memory"] = base64.b64encode(bytes(12)).decode("ascii")
        path.write_text(json.dumps(data))
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        assert cache.stats.errors == 1
        assert cache.stats.hits == 0
        assert not path.exists()
