"""Structural integrity of the shipped 66-case benchmark corpus."""

from __future__ import annotations

import re

# Transcription freeze: the recorded judgement of every case, by variable.
INTUITION_VARS = {
    "01": "c,d",
    "02": "a,b",
    "03": "a,c",
    "04": "c,d",
    "05": "c,f",
    "06": "a,d,f",
    "07": "a,c",
    "08": "c,d",
    "09": "a,b,f,g",
    "10": "d",
    "11": "a,b,c,d,f,g",
    "12": "a,b,c,f",
    "13": "c",
    "14": "c,f",
    "15": "d",
    "16": "c",
    "17": "a",
    "18": "",
    "19": "c,d,g",
    "20": "c,g,i",
    "21": "a,c,d",
    "22": "c,d,f,g",
    "23": "c,d",
    "24": "a,d",
    "25": "a,d,f",
    "26": "a,c,d,f",
    "27": "c,d,g",
    "28": "c,d,g,h,i",
    "29": "a,b,d",
    "30": "a,b,f",
    "31": "a,b,c,d",
    "32": "a,b,d",
    "33": "a,b",
    "34": "",
    "35": "",
    "36": "a,f",
    "37": "b,g",
    "38": "b,g",
    "39": "",
    "40": "a,d",
    "41": "a,c",
    "42": "b,c,f",
    "43": "",
    "44": "b,g",
    "45": "c,f",
    "46": "c,d",
    "47": "c",
    "48": "",
    "49": "m",
    "50": "m,v,w",
    "51": "b,c",
    "52": "a,c,f",
    "53": "a,b,c,d",
    "54": "a,b,c,d",
    "55": "a,b",
    "56": "c",
    "57": "c",
    "58": "c",
    "59": "c",
    "60": "c,f",
    "61": "a,c",
    "62": "a,b,c,d,f,g,h",
    "63": "c",
    "64": "d",
    "65": "a,b,c",
    "66": "b,c",
}

OMISSION_CASES = {"03", "06", "11", "14", "20", "23", "24", "25", "40"}
INTENTION_CASES = {"36", "37", "38", "39", "44"}
HPH_CELL_CASES = {
    "03", "06", "11", "12", "14", "20", "23", "24", "25", "34",
    "40", "41", "49", "51", "52", "53", "54", "57", "61",
}
WESLAKE_CELL_CASES = {
    "01", "08", "11", "19", "22", "26", "27", "29", "30", "36",
    "39", "40", "41", "42", "43", "45", "46", "49", "50", "51",
    "52", "53", "57", "60", "61", "62", "66",
}


def test_sixty_six_uniquely_numbered_files(corpus_path):
    files = sorted(corpus_path.glob("*.case"))
    assert len(files) == 66
    ids = [f.name[:2] for f in files]
    assert ids == [f"{n:02d}" for n in range(1, 67)]
    assert all(re.fullmatch(r"\d{2}-[\w.]+\.case", f.name) for f in files)


def test_ids_match_filenames(corpus_path, corpus_cases):
    for case_file in corpus_path.glob("*.case"):
        case_id = case_file.name[:2]
        assert corpus_cases[case_id].id == case_id


def test_every_case_is_reliable_with_effect_e(corpus_cases):
    assert len(corpus_cases) == 66
    for case in corpus_cases.values():
        assert case.scenario.mode == "reliable"
        assert case.effect.var == "e"
        assert case.effect.value == case.scenario.actual_value("e")


def test_every_case_records_an_intuition(corpus_cases):
    for case in corpus_cases.values():
        assert case.intuition is not None


def test_intuition_transcription(corpus_cases):
    for case_id, expected in INTUITION_VARS.items():
        actual_vars = ",".join(sorted(ev.var for ev in corpus_cases[case_id].intuition))
        assert actual_vars == expected, f"case {case_id}"


def test_intuition_events_carry_actual_values(corpus_cases):
    for case in corpus_cases.values():
        for ev in case.intuition:
            assert ev.value == case.scenario.actual_value(ev.var), case.id


def test_omission_flags(corpus_cases):
    flagged = {i for i, case in corpus_cases.items() if case.omission_flag}
    assert flagged == OMISSION_CASES
    # Every flagged case has at least one recorded cause sitting at its
    # default value (the omission in question).
    for case_id in flagged:
        case = corpus_cases[case_id]
        assert any(
            ev.value == case.scenario.defaults[ev.var]
            for ev in case.intuition
        ), case_id


def test_intention_pairs(corpus_cases):
    with_intentions = {
        i: case.scenario.intentions
        for i, case in corpus_cases.items()
        if case.scenario.intentions
    }
    assert set(with_intentions) == INTENTION_CASES
    for pairs in with_intentions.values():
        assert pairs == (("f", "a"), ("g", "b"))


def test_comparator_reference_cells(corpus_cases):
    hph = {i for i, case in corpus_cases.items() if case.expected_hph is not None}
    weslake = {
        i for i, case in corpus_cases.items() if case.expected_weslake is not None
    }
    assert hph == HPH_CELL_CASES
    assert weslake == WESLAKE_CELL_CASES


def test_sources(corpus_cases):
    for case_id, case in corpus_cases.items():
        if case_id == "42":
            assert not case.source  # blank in the record; file says unsourced
        else:
            assert case.source


def test_wide_domains_and_shifted_defaults_present(corpus_cases):
    nonbinary = {
        i
        for i, case in corpus_cases.items()
        if any(
            dom.values != (0, 1)
            for dom in case.scenario.model.domains.values()
        )
    }
    assert {"29", "49", "62", "66"} <= nonbinary
    shifted = {
        i
        for i, case in corpus_cases.items()
        if any(
            case.scenario.defaults[v] != 0
            for v in case.scenario.model.variables
        )
    }
    assert shifted == {"60", "61", "62", "63", "64"}
