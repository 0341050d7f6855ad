from ratinglab import N_STATES, RATING_LABELS, WITHDRAWN_LABEL


def test_scale_has_fifteen_unique_labels():
    assert N_STATES == 15
    assert len(RATING_LABELS) == 15
    assert len(set(RATING_LABELS)) == 15


def test_orientation_worst_to_best():
    assert RATING_LABELS[0] == "E-"
    assert RATING_LABELS[14] == "A+"
    assert RATING_LABELS == (
        "E-", "E", "E+", "D-", "D", "D+", "C-", "C", "C+",
        "B-", "B", "B+", "A-", "A", "A+",
    )


def test_withdrawn_sentinel_is_not_a_state():
    assert WITHDRAWN_LABEL == "WR"
    assert WITHDRAWN_LABEL not in RATING_LABELS
