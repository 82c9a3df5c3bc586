"""Ingestion of observation panels and covariates.

Conventions used throughout the package:

* Subject and day *indices* are 0-based.
* Ordinal *levels* (observation codes) and hidden *states* are 1-based
  values, matching the data files: level 1 = abstinent, 2 = moderate,
  3 = heavy.
* Missing cells are stored as 0 in the ``codes`` array and flagged in a
  separate boolean mask, which is fixed at load time.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass

import numpy as np

from .errors import InputError

COVARIATE_NAMES = ("treatment", "sex", "prior_drinking", "time")
M_LEVELS = 3  # diary levels: abstinent, moderate, heavy


@dataclass(frozen=True)
class ObservationPanel:
    """An N x T grid of ordinal codes with an explicit missingness mask.

    Parameters
    ----------
    codes : ndarray of int, shape (n_subjects, n_days)
        Observed levels in ``1..m_levels``; missing cells hold 0.
    mask : ndarray of bool, shape (n_subjects, n_days)
        True where the observation is missing.
    m_levels : int
        Number of ordinal levels M.
    """

    codes: np.ndarray
    mask: np.ndarray
    m_levels: int = M_LEVELS

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64)
        mask = np.asarray(self.mask, dtype=bool)
        if codes.ndim != 2 or codes.shape != mask.shape:
            raise InputError("codes and mask must be 2-d arrays of the same shape")
        observed = codes[~mask]
        if observed.size and (observed.min() < 1 or observed.max() > self.m_levels):
            raise InputError(
                f"observed codes must lie in 1..{self.m_levels}; "
                f"found range [{observed.min()}, {observed.max()}]"
            )
        codes = codes.copy()
        codes[mask] = 0
        codes.setflags(write=False)
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "mask", mask)

    @property
    def n_subjects(self) -> int:
        return self.codes.shape[0]

    @property
    def n_days(self) -> int:
        return self.codes.shape[1]


@dataclass(frozen=True)
class RawCovariates:
    """Per-subject covariates as recorded in x.csv.

    ``sex`` is coded 1 = female, 0 = male; ``treatment`` 1 = active drug,
    0 = placebo.  ``d_drink`` and ``d_heavy`` are the proportions of
    pre-trial days with any drinking and with heavy drinking.
    """

    treatment: np.ndarray
    sex: np.ndarray
    d_drink: np.ndarray
    d_heavy: np.ndarray

    def __post_init__(self):
        arrays = {}
        n = None
        for name in ("treatment", "sex", "d_drink", "d_heavy"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim != 1:
                raise InputError(f"{name} must be a 1-d array")
            if n is None:
                n = a.size
            elif a.size != n:
                raise InputError("covariate arrays must have equal length")
            arrays[name] = a
        for name in ("treatment", "sex"):
            if not np.all(np.isin(arrays[name], (0.0, 1.0))):
                raise InputError(f"{name} must be binary (0/1)")
        for name in ("d_drink", "d_heavy"):
            a = arrays[name]
            if not np.all((a >= 0) & (a <= 1)):  # NaN fails both comparisons
                raise InputError(f"{name} must be a number in [0, 1]")
        if np.any(arrays["d_heavy"] > arrays["d_drink"] + 1e-12):
            raise InputError("d_heavy cannot exceed d_drink")
        for name, a in arrays.items():
            a = a.copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_subjects(self) -> int:
        return self.treatment.size


@dataclass(frozen=True)
class DesignMatrix:
    """Per-(subject, day) standardized covariate vectors.

    ``values[i, t]`` is the p-vector (Treatment, Sex, PriorDrinking, Time)
    on the standardized scale.  Treatment, Sex and PriorDrinking are
    constant within subject; Time varies with the day index.
    """

    values: np.ndarray
    names: tuple = COVARIATE_NAMES

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3:
            raise InputError("design values must have shape (n_subjects, n_days, p)")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_subjects(self) -> int:
        return self.values.shape[0]

    @property
    def n_days(self) -> int:
        return self.values.shape[1]

    @property
    def p(self) -> int:
        return self.values.shape[2]

    def column_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown covariate {name!r}; have {self.names}") from None


def _cell_code(cell: str, missing_token: str, m_levels: int) -> int:
    """Code of one stripped panel cell, 0 if it is missing; ValueError
    if it is neither missing nor a code in ``1..m_levels``."""
    if cell == "" or cell.lower() == missing_token.lower():
        return 0
    try:
        value = int(cell)
    except ValueError:
        raise ValueError(f"invalid cell {cell!r}") from None
    if not 1 <= value <= m_levels:
        raise ValueError(f"code {value} outside 1..{m_levels}")
    return value


@contextlib.contextmanager
def open_text(path, newline=None):
    """``path`` opened to read as UTF-8 text, a leading byte-order mark
    dropped and ``newline`` as for :func:`open`; text in another encoding
    is an input error naming the file."""
    with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise InputError(f"{path}: not UTF-8 text (byte 0x{byte:02x}); "
                             "save it as UTF-8") from None


def load_observations(path, missing_token: str = "NA") -> ObservationPanel:
    """Load a delimited panel file into an :class:`ObservationPanel`.

    One row per subject, one column per day.  Cells are integer codes in
    ``1..M_LEVELS`` or the missing token (case-insensitive; empty cells
    also count as missing).  Comma, whitespace, and semicolon delimiters
    are detected automatically.  Each distinct cell text is parsed once.

    Raises
    ------
    InputError
        On ragged rows, invalid cells, out-of-range codes, or an empty
        file; the message cites the first faulty line.
    """
    with open_text(path) as fh:
        text = fh.read()
    lookup, rows, width = {}, [], None  # lookup: cell text -> code
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if "," in line:
            cells = line.split(",")
        elif ";" in line:
            cells = line.split(";")
        else:
            cells = line.split()
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise InputError(
                f"{path}:{lineno}: ragged row ({len(cells)} cells, expected {width})"
            )
        # new cell texts in row order, so a row's first faulty cell is reported
        for cell in sorted(set(cells).difference(lookup), key=cells.index):
            try:
                lookup[cell] = _cell_code(cell.strip(), missing_token, M_LEVELS)
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
        rows.append([lookup[c] for c in cells])
    if not rows:
        raise InputError(f"{path}: no data rows")
    codes = np.array(rows, dtype=np.int64)
    return ObservationPanel(codes=codes, mask=codes == 0, m_levels=M_LEVELS)


def save_observations(panel: ObservationPanel, path, missing_token: str = "NA") -> None:
    """Write a panel back to delimited text; inverse of :func:`load_observations`."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(panel.n_subjects):
            cells = [
                missing_token if panel.mask[i, t] else str(panel.codes[i, t])
                for t in range(panel.n_days)
            ]
            fh.write(",".join(cells) + "\n")


def load_covariates(path) -> RawCovariates:
    """Load x.csv: one row per subject, named columns sex, treatment,
    d_drink, d_heavy (header required, extra columns ignored).

    Sex accepts 0/1 or the strings male/female (female = 1); treatment
    accepts 0/1 or placebo/naltrexone (naltrexone = 1).
    """
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InputError(f"{path}: empty file")
        fields = {name.strip().lower(): name for name in reader.fieldnames}
        required = ("sex", "treatment", "d_drink", "d_heavy")
        missing = [c for c in required if c not in fields]
        if missing:
            raise InputError(f"{path}: missing required columns {missing}")
        columns = {c: [] for c in required}
        for lineno, row in enumerate(reader, start=2):
            for c in required:
                cell = (row[fields[c]] or "").strip()
                try:
                    columns[c].append(_parse_covariate_cell(c, cell))
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: {exc}") from None
    if not columns["sex"]:
        raise InputError(f"{path}: no data rows")
    return RawCovariates(
        treatment=np.array(columns["treatment"]),
        sex=np.array(columns["sex"]),
        d_drink=np.array(columns["d_drink"]),
        d_heavy=np.array(columns["d_heavy"]),
    )


def _parse_covariate_cell(column: str, cell: str) -> float:
    words = {
        "sex": {"male": 0.0, "m": 0.0, "female": 1.0, "f": 1.0},
        "treatment": {"placebo": 0.0, "control": 0.0, "naltrexone": 1.0, "active": 1.0},
    }
    if column in words and cell.lower() in words[column]:
        return words[column][cell.lower()]
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"invalid {column} value {cell!r}") from None


def standardize(raw, name: str = "") -> np.ndarray:
    """Center and scale a vector to mean 0 and standard deviation 1/2.

    Uses the population sd (divide by n), so an evenly split binary
    covariate maps exactly onto {-1/2, +1/2}.

    Raises
    ------
    InputError
        If the vector is constant.
    """
    raw = np.asarray(raw, dtype=float)
    sd = float(raw.std())  # population convention: ddof=0
    if sd == 0.0:
        raise InputError(
            f"covariate {name or '<unnamed>'} is constant and cannot be standardized"
        )
    return (raw - float(raw.mean())) / (2.0 * sd)


def build_design(raw: RawCovariates, n_days: int) -> DesignMatrix:
    """Assemble the standardized (Treatment, Sex, PriorDrinking, Time) design.

    PriorDrinking counts moderate pre-trial days once and heavy days twice,
    ``(d_drink - d_heavy) + 2 * d_heavy``, in [0, 2].  Subject-level
    covariates are standardized over the subject population; Time (day
    index 1..T) is standardized over all subject-days, which for a
    rectangular panel equals standardizing 1..T.
    """
    prior = (raw.d_drink - raw.d_heavy) + 2.0 * raw.d_heavy
    columns = [np.repeat(standardize(values, name=name)[:, None], n_days, axis=1)
               for name, values in (("treatment", raw.treatment), ("sex", raw.sex),
                                    ("prior_drinking", prior))]
    days = standardize(np.arange(1, n_days + 1, dtype=float), name="time")
    columns.append(np.repeat(days[None, :], raw.n_subjects, axis=0))
    return DesignMatrix(values=np.stack(columns, axis=2))
