"""Fat-binary codec, override config, and symbol cache tests."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hrtsim.errors import FormatError, ParseError
from hrtsim.machine import Machine
from hrtsim.mem import HIGHER_BASE
from hrtsim.sim import kernel_image
from hrtsim.toolchain import (
    AeroKernelImage,
    AppDescriptor,
    OverrideEntry,
    SymbolCache,
    default_override_map,
    embed,
    parse_fat_binary,
    parse_override_config,
)
from hrtsim.workload import parse_workload

from test_inert import TEXTS


def random_image(rng: random.Random, symbols: int) -> AeroKernelImage:
    table = {
        f"fn_{i}_{rng.randrange(1 << 20):x}": HIGHER_BASE + rng.randrange(1 << 30) * 0x10
        for i in range(symbols)
    }
    entry = next(iter(table)) if table else "start"
    return AeroKernelImage(entry=entry, symbol_table=table, payload_size=rng.randrange(1, 1 << 20))


class TestFatBinary:
    def test_round_trip(self):
        app = AppDescriptor(name="bench", workload="w.txt")
        image = AeroKernelImage("start", {"start": HIGHER_BASE + 0x100}, 4096)
        parsed_app, parsed_image = parse_fat_binary(embed(app, image))
        assert parsed_app == app
        assert parsed_image == image
        assert embed(parsed_app, parsed_image) == embed(app, image)

    def test_round_trip_empty_symbol_table(self):
        image = AeroKernelImage("start", {}, 1)
        _, parsed = parse_fat_binary(embed(AppDescriptor("a"), image))
        assert parsed == image

    def test_round_trip_thousand_symbols(self):
        image = random_image(random.Random(3), 1000)
        _, parsed = parse_fat_binary(embed(AppDescriptor("big"), image))
        assert parsed == image

    def test_bad_magic(self):
        blob = embed(AppDescriptor("a"), AeroKernelImage("s", {}, 1))
        with pytest.raises(FormatError):
            parse_fat_binary(b"NOTMAGIC" + blob[8:])

    def test_version_mismatch(self):
        blob = bytearray(embed(AppDescriptor("a"), AeroKernelImage("s", {}, 1)))
        blob[8] = 2
        with pytest.raises(FormatError):
            parse_fat_binary(bytes(blob))

    def test_truncated_payload_reports_offset(self):
        blob = embed(AppDescriptor("a"), AeroKernelImage("s", {}, 1))
        with pytest.raises(FormatError) as info:
            parse_fat_binary(blob[:-3])
        assert info.value.offset is not None

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            parse_fat_binary(b"MVFAT")

    def test_every_single_byte_header_corruption_rejected(self):
        blob = embed(AppDescriptor("app"), AeroKernelImage("s", {"s": HIGHER_BASE}, 64))
        for offset in range(20):
            for delta in (0x01, 0x80, 0xFF):
                corrupt = bytearray(blob)
                corrupt[offset] ^= delta
                with pytest.raises(FormatError):
                    parse_fat_binary(bytes(corrupt))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_randomized(self, seed):
        image = random_image(random.Random(seed), seed % 8)
        blob = embed(AppDescriptor(f"app{seed}"), image)
        _, parsed = parse_fat_binary(blob)
        assert parsed == image

    def test_container_carries_every_image_set_up_installs(self):
        # Set-up installs `kernel_image` as it is; the toolchain's container
        # carries each such image unchanged, over every golden and corpus text.
        for text, _ in TEXTS:
            image = kernel_image(parse_workload(text))
            assert parse_fat_binary(embed(AppDescriptor("app"), image))[1] == image


class TestOverrideConfig:
    def test_documented_example(self):
        overrides, warnings = parse_override_config(
            "override pthread_create -> nk_thread_start args(2:0,3:1)\n"
        )
        entry = overrides["pthread_create"]
        assert entry.aero_name == "nk_thread_start"
        assert entry.arg_mapping == ((2, 0), (3, 1))
        assert entry.enabled
        assert warnings == []

    def test_empty_file_keeps_defaults(self):
        overrides, _ = parse_override_config("")
        assert overrides == default_override_map()
        assert "pthread_create" in overrides

    def test_injective_mapping_required(self):
        with pytest.raises(ValueError):
            OverrideEntry("f", ((0, 1), (2, 1)))

    def test_missing_target(self):
        with pytest.raises(ParseError) as info:
            parse_override_config("override x ->\n")
        assert info.value.line == 1

    def test_duplicate_warns_last_wins(self):
        overrides, warnings = parse_override_config(
            "override f -> a\noverride f -> b\n"
        )
        assert overrides["f"].aero_name == "b"
        assert len(warnings) == 1
        assert "line 2" in warnings[0]

    def test_disable_flag(self):
        overrides, _ = parse_override_config("override f -> a off\n")
        assert not overrides["f"].enabled

    def test_error_line_numbers(self):
        with pytest.raises(ParseError) as info:
            parse_override_config("override a -> b\n\noverride broken\n")
        assert info.value.line == 3


class TestSymbolCache:
    def test_hit_miss_counters(self):
        cache = SymbolCache(capacity=4)
        assert cache.lookup("a") is None
        cache.insert("a", HIGHER_BASE + 0x40)
        assert cache.lookup("a") == HIGHER_BASE + 0x40
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = SymbolCache(capacity=2)
        cache.insert("a", 1 + HIGHER_BASE)
        cache.insert("b", 2 + HIGHER_BASE)
        cache.lookup("a")
        cache.insert("c", 3 + HIGHER_BASE)  # evicts b
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None
        assert cache.lookup("c") is not None

    def test_coherence_with_fresh_resolution(self):
        # A cached address always equals what a fresh lookup in the
        # installed image returns.
        from hrtsim.sim import System

        names = [f"fn{i}" for i in range(20)]
        symbols = {name: HIGHER_BASE + 0x40 * i for i, name in enumerate(names)}
        hrt = System(machine=Machine(phys_frames=512)).hrt
        hrt.install_image(AeroKernelImage(names[0], symbols, payload_size=4096))
        for name in names * 2:  # a miss, then a hit
            assert hrt.resolve_symbol(name, 1000) == hrt.symbol(name) == symbols[name]
        for name in names:
            assert hrt.symbol_cache.lookup(name) == hrt.symbol(name)
        assert (hrt.symbol_cache.hits, hrt.symbol_cache.misses) == (40, 20)
