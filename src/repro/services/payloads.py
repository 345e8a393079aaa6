"""Payload key/value synthesis — the raw data types in traffic.

The paper extracted 3,968 unique raw data types (key strings) from
payload JSON, query strings and cookies (§3.2.2): plain words
(``email``), abbreviations (``os``, ``rtt``), and concatenations
(``pers_ad_show_third_part_measurement``, ``IsOptOutEmailShown``).
This module synthesizes the same population:

* per level-3 ontology category, a list of **base keys** (realistic
  traffic spellings);
* deterministic **shape transforms** (snake/camel/kebab/dotted,
  SDK-style prefixes) that multiply the base keys into thousands of
  unique variants while preserving their meaning;
* a slice of **opaque keys** (``bffp``, ``xq3c``) whose meaning is
  internal to the imaginary developer — these are what drives the
  classifiers' confidence thresholds;
* value factories producing plausible values per category.

Every generated key is registered with its ground-truth category, the
label a human would assign during the paper's manual validation
(§3.2.2's 10% sample).  The analysis pipeline never sees this registry
— only the classifier-validation harness does.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

from repro.ontology.nodes import Level3

# ---------------------------------------------------------------------
# Base keys per category — realistic spellings found in real traffic.
# ---------------------------------------------------------------------

BASE_KEYS: dict[Level3, tuple[str, ...]] = {
    Level3.NAME: (
        "first_name", "last_name", "full_name", "username", "display_name",
        "nickname", "real_name", "given_name", "family_name", "screen_name",
    ),
    Level3.CONTACT_INFORMATION: (
        "email", "email_address", "phone", "phone_number", "contact_email",
        "parent_email", "recovery_email", "tel", "mobile_number",
    ),
    Level3.ALIASES: (
        "user_id", "uid", "uuid", "guid", "account_id", "profile_id",
        "member_id", "player_id", "visitor_id", "anon_id", "online_id",
    ),
    Level3.REASONABLY_LINKABLE_PERSONAL_IDENTIFIERS: (
        "ip", "ip_address", "client_ip", "remote_addr", "x_forwarded_for",
        "pseudonym", "pseudo_id",
    ),
    Level3.LOGIN_INFORMATION: (
        "password", "passwd", "auth_token", "access_token", "refresh_token",
        "session_token", "csrf_token", "api_key", "bearer", "login", "otp_code",
    ),
    Level3.CUSTOMER_NUMBERS: (
        "customer_number", "account_number", "card_number", "billing_account",
    ),
    Level3.LINKED_PERSONAL_IDENTIFIERS: (
        "ssn", "passport_number", "drivers_license",
    ),
    Level3.DEVICE_HARDWARE_IDENTIFIERS: (
        "device_id", "imei", "mac_address", "android_id", "hardware_id",
        "serial_number", "device_serial", "hw_id", "board_serial",
    ),
    Level3.DEVICE_SOFTWARE_IDENTIFIERS: (
        "advertising_id", "ad_id", "gaid", "idfa", "idfv", "cookie_id",
        "install_id", "instance_id", "app_instance_id", "client_id",
        "tracking_id", "pixel_id", "beacon_id", "fingerprint",
    ),
    Level3.DEVICE_INFORMATION: (
        "os", "os_version", "device_model", "device_type", "user_agent",
        "screen_width", "screen_height", "screen_resolution", "pixel_ratio",
        "browser", "browser_version", "cpu_cores", "memory_gb", "battery_level",
        "fps", "bitrate", "abr", "render_delay", "download_speed", "buffer_size",
        "frame_rate", "color_depth", "sound_enabled",
    ),
    Level3.AGE: (
        "age", "birthday", "birth_date", "birth_year", "dob", "age_group",
        "age_band", "under_13", "yob",
    ),
    Level3.LANGUAGE: (
        "language", "lang", "locale", "ui_language", "accept_language",
        "preferred_language",
    ),
    Level3.GENDER_SEX: ("gender", "sex", "pronouns", "gender_identity"),
    Level3.RACE: ("ethnicity", "race"),
    Level3.RELIGION: ("religion",),
    Level3.MARITAL_STATUS: ("marital_status",),
    Level3.MILITARY_VETERAN_STATUS: ("veteran_status",),
    Level3.MEDICAL_CONDITIONS: ("medical_condition",),
    Level3.GENETIC_INFORMATION: ("dna_profile",),
    Level3.DISABILITIES: ("accessibility_mode",),
    Level3.BIOMETRIC_INFORMATION: ("voiceprint", "face_template"),
    Level3.PERSONAL_HISTORY: ("education_level", "school_name", "grade_level"),
    Level3.PRECISE_GEOLOCATION: (
        "latitude", "longitude", "lat", "lng", "gps_coords", "postal_address",
        "street_address", "zip",
    ),
    Level3.COARSE_GEOLOCATION: (
        "country", "country_code", "region", "city", "geo", "geo_region",
        "market", "territory",
    ),
    Level3.LOCATION_TIME: (
        "timestamp", "ts", "timezone", "tz_offset", "utc_offset", "local_time",
        "client_time", "event_time", "date", "epoch_ms",
    ),
    Level3.COMMUNICATIONS: ("message_text", "chat_message", "comment_body"),
    Level3.CONTACTS: ("contact_list", "friends_list", "address_book"),
    Level3.INTERNET_ACTIVITY: ("search_query", "browsing_history", "visited_url"),
    Level3.NETWORK_CONNECTION_INFORMATION: (
        "rtt", "ttfb", "protocol", "connection_type", "network_type",
        "carrier", "dns_time", "tcp_time", "tls_version", "request_id",
        "response_code", "referer", "host", "cache_status", "telemetry_batch",
        "payload_size", "effective_bandwidth", "ssid_hash",
    ),
    Level3.SENSOR_DATA: ("accelerometer", "gyroscope", "mic_level"),
    Level3.PRODUCTS_AND_ADVERTISING: (
        "ad_unit", "ad_impression", "campaign_id", "campaign", "creative_id",
        "bid_price", "bid_id", "auction_id", "placement_id", "ad_click",
        "conversion", "utm_source", "utm_medium", "utm_campaign", "advertiser_id",
        "pers_ad_show_third_part_measurement", "ad_frequency", "marketing_opt_in",
    ),
    Level3.APP_OR_SERVICE_USAGE: (
        "event", "event_name", "action", "session_id", "session_duration",
        "screen_view", "page_view", "click_target", "scroll_depth",
        "watch_time", "play_position", "video_id", "volume_level", "avatar_state",
        "level_progress", "score", "streak_days", "study_session", "quiz_score",
        "game_time", "content_id", "interaction_count", "engagement_ms",
    ),
    Level3.ACCOUNT_SETTINGS: (
        "settings", "consent", "consent_status", "gdpr_consent", "ccpa_opt_out",
        "notification_pref", "privacy_mode", "parental_controls",
        "IsOptOutEmailShown", "marketing_consent", "cookie_consent",
        "restricted_mode", "autoplay_enabled",
    ),
    Level3.SERVICE_INFORMATION: (
        "app_version", "sdk_version", "api_version", "build_number", "platform",
        "bundle_id", "package_name", "page_url", "site_section", "environment",
        "release_channel", "server_region", "cdn_node", "script_version",
        "experiment_id", "feature_flags", "dom_ready", "app_name", "source_url",
    ),
    Level3.INFERENCES: (
        "interest_segment", "audience_segment", "user_segment", "affinity_score",
        "recommendation_bucket", "predicted_interest", "propensity_score",
        "persona", "cohort",
    ),
}

# Every category's base keys: an opaque key must never take one, or a
# later category's registration of its own base key would collide.
_ALL_BASE_KEYS = frozenset(key for bases in BASE_KEYS.values() for key in bases)

# Industry-standard parameter names per category — the keys trackers
# and SDKs document publicly (GA's ``cid``-style params, MMP payload
# fields).  Used for coverage-critical flows: unambiguous to any
# annotator or classifier.  tests/test_payloads.py asserts each stays
# correctly classified by the default majority-vote model.
STABLE_KEYS: dict[Level3, tuple[str, ...]] = {
    Level3.NAME: ("first_name", "display_name", "nickname"),
    Level3.CONTACT_INFORMATION: ("email", "email_address", "phone_number"),
    Level3.ALIASES: ("user_id", "uid", "uuid", "guid"),
    Level3.REASONABLY_LINKABLE_PERSONAL_IDENTIFIERS: ("ip_address",),
    Level3.LOGIN_INFORMATION: ("password", "auth_token", "access_token"),
    Level3.DEVICE_HARDWARE_IDENTIFIERS: ("device_id", "imei", "mac_address", "android_id"),
    Level3.DEVICE_SOFTWARE_IDENTIFIERS: ("advertising_id", "idfa", "cookie_id", "ad_id"),
    Level3.DEVICE_INFORMATION: ("os", "os_version", "device_model", "user_agent"),
    Level3.AGE: ("age", "birth_date", "birth_year"),
    Level3.LANGUAGE: ("language", "locale", "ui_language"),
    Level3.GENDER_SEX: ("gender", "sex"),
    Level3.COARSE_GEOLOCATION: ("country", "country_code", "region", "city"),
    Level3.LOCATION_TIME: ("timestamp", "timezone", "tz_offset"),
    Level3.NETWORK_CONNECTION_INFORMATION: ("rtt", "ttfb", "protocol", "connection_type"),
    Level3.PRODUCTS_AND_ADVERTISING: ("ad_unit", "campaign_id", "ad_impression"),
    Level3.APP_OR_SERVICE_USAGE: ("event_name", "session_duration", "screen_view"),
    Level3.ACCOUNT_SETTINGS: ("consent_status", "gdpr_consent", "settings"),
    Level3.SERVICE_INFORMATION: ("app_version", "api_version", "build_number"),
    Level3.INFERENCES: ("interest_segment", "audience_segment", "affinity_score"),
}

# SDK-style prefixes seen in the wild; applied as "<prefix>_<key>" etc.
SDK_PREFIXES: tuple[str, ...] = (
    "ga", "fb", "amp", "mp", "bz", "af", "adj", "sp", "ttq", "yt",
    "sdk", "client", "ctx", "meta", "evt", "usr", "dev", "req",
)

# Developer abbreviations: readable to anyone with programming world
# knowledge (and to the abbreviation-expanding classifier), nearly
# invisible to surface string matching — "dob" shares no trigrams with
# "date of birth".
_TOKEN_ABBREV: dict[str, str] = {
    "password": "pwd",
    "message": "msg",
    "language": "lang",
    "latitude": "lat",
    "longitude": "lng",
    "timezone": "tz",
    "timestamp": "ts",
    "session": "sess",
    "request": "req",
    "response": "resp",
    "authentication": "auth",
    "preferences": "prefs",
    "version": "ver",
    "application": "app",
    "telephone": "tel",
    "download": "dl",
    "user": "usr",
    "account": "acct",
    "identifier": "id",
    "advertising": "adv",
    "geolocation": "geo",
    "location": "loc",
    "number": "num",
    "email": "eml",
    "address": "addr",
    "country": "cntry",
    "region": "rgn",
    "screen": "scr",
    "model": "mdl",
    "gender": "gndr",
    "coordinates": "crd",
    "impression": "impr",
    "campaign": "cmp",
    "segment": "seg",
    "token": "tkn",
    "history": "hist",
    "query": "qry",
    "connection": "conn",
    "protocol": "proto",
    "birthday": "bday",
    "duration": "dur",
}

# Heavy decoration templates ("IsOptOutEmailShown" style).
_WRAP_TEMPLATES: tuple[str, ...] = (
    "is_{b}_shown",
    "has_{b}_set",
    "{b}_enabled",
    "get_{b}_value",
    "x_{b}_hdr",
    "show_{b}_part",
    "last_{b}_sync_state",
    "opt_{b}_measurement",
    "cur_{b}_snapshot",
    "{b}_raw_blob",
)


def _to_camel(key: str) -> str:
    parts = key.split("_")
    return parts[0] + "".join(p.capitalize() for p in parts[1:])


def _to_pascal(key: str) -> str:
    return "".join(p.capitalize() for p in key.split("_"))


def _to_kebab(key: str) -> str:
    return key.replace("_", "-")


def _to_dotted(key: str) -> str:
    return key.replace("_", ".")


_SHAPES = (
    lambda k: k,
    _to_camel,
    _to_pascal,
    _to_kebab,
    _to_dotted,
)


@dataclass
class KeyRegistry:
    """Ground truth: every emitted key and its true category."""

    truth: dict[str, Level3] = field(default_factory=dict)
    opaque: set[str] = field(default_factory=set)

    def register(self, key: str, label: Level3, opaque: bool = False) -> None:
        existing = self.truth.get(key)
        if existing is not None and existing is not label:
            # Key shapes are category-derived, so collisions across
            # categories indicate a synthesis bug.
            raise ValueError(f"key {key!r} registered for {existing} and {label}")
        self.truth[key] = label
        if opaque:
            self.opaque.add(key)

    def __len__(self) -> int:
        return len(self.truth)


class PayloadFactory:
    """Deterministic pool of (key, value) material per category.

    ``variants_per_base`` controls how many shape/prefix variants each
    base key receives; the default lands the full corpus near the
    paper's 3,968 unique data types.
    """

    def __init__(
        self,
        seed: int = 2023,
        variants_per_base: int = 17,
        opaque_per_category: int = 11,
    ) -> None:
        self._rng = random.Random(seed)
        self.registry = KeyRegistry()
        self._pools: dict[Level3, list[str]] = {}
        for label, bases in BASE_KEYS.items():
            pool: list[str] = []
            for base in bases:
                pool.append(base)
                self.registry.register(base, label)
                variants = self._variants(base, variants_per_base)
                for variant in variants:
                    if variant in self.registry.truth:
                        continue
                    self.registry.register(variant, label)
                    pool.append(variant)
            for _ in range(opaque_per_category):
                key = self._opaque_key()
                if key in self.registry.truth or key in _ALL_BASE_KEYS:
                    continue
                self.registry.register(key, label, opaque=True)
                pool.append(key)
            self._pools[label] = pool
        # pick_keys splits each pool into clear/opaque on every call
        # otherwise — at corpus scale that filter dominated generation.
        # Pools and the opaque set are fixed after construction, so the
        # split is computed once per category.
        opaque = self.registry.opaque
        self._clear_pools = {
            label: [k for k in pool if k not in opaque]
            for label, pool in self._pools.items()
        }
        self._opaque_pools = {
            label: [k for k in pool if k in opaque]
            for label, pool in self._pools.items()
        }
        self._canonical_pools = {
            label: list(STABLE_KEYS.get(label) or BASE_KEYS[label])
            for label in self._pools
        }

    def _variants(self, base: str, count: int) -> list[str]:
        """Shape/prefix/wrap variants of one base key.

        Mix mirrors real traffic: a minority of clean case variants,
        then SDK-prefixed forms, then heavily decorated compounds
        (``IsOptOutEmailShown``, ``pers_ad_show_third_part_measurement``
        style) that surface-similarity methods struggle with.
        """
        out: list[str] = []
        shapes = list(_SHAPES)
        prefixes = list(SDK_PREFIXES)
        wraps = list(_WRAP_TEMPLATES)
        self._rng.shuffle(prefixes)
        self._rng.shuffle(wraps)
        abbreviated = "_".join(
            _TOKEN_ABBREV.get(token, token) for token in base.split("_")
        )
        for index in range(count):
            shape = shapes[index % len(shapes)]
            if index < 2:
                candidate = shape(base)
            elif index < 4:
                prefix = prefixes[index % len(prefixes)]
                candidate = shape(f"{prefix}_{base}")
            elif index < 7:
                template = wraps[index % len(wraps)]
                candidate = shape(template.format(b=base))
            elif index < 11 and abbreviated != base:
                prefix = prefixes[index % len(prefixes)]
                candidate = shape(abbreviated if index == 7 else f"{prefix}_{abbreviated}")
            else:
                template = wraps[index % len(wraps)]
                candidate = shape(template.format(b=abbreviated))
            if candidate != base:
                out.append(candidate)
        return list(dict.fromkeys(out))

    def _opaque_key(self) -> str:
        length = self._rng.randint(3, 5)
        return "".join(
            self._rng.choice(string.ascii_lowercase + string.digits)
            for _ in range(length)
        )

    # -- key selection -------------------------------------------------

    def pool(self, label: Level3) -> list[str]:
        return list(self._pools[label])

    def keys_for_categories(self, labels) -> list[str]:
        """Every registry key whose truth is one of ``labels``."""
        wanted = set(labels)
        return [key for key, truth in self.registry.truth.items() if truth in wanted]

    def pick_keys(
        self,
        label: Level3,
        rng: random.Random,
        count: int = 1,
        avoid_opaque: bool = False,
        canonical: bool = False,
    ) -> list[str]:
        """Sample keys for one category; ~12% of picks are opaque.

        ``avoid_opaque`` draws only meaningful keys; ``canonical``
        draws only undis-guised base keys — used for linkable bundles,
        mirroring that trackers' own parameters are standardized,
        well-known names (``idfa``, ``bid_price``, ``campaign_id``).
        """
        pool = self._pools[label]
        clear = self._clear_pools[label]
        picks: list[str] = []
        for _ in range(count):
            if canonical:
                picks.append(rng.choice(self._canonical_pools[label]))
                continue
            if avoid_opaque and clear:
                picks.append(rng.choice(clear))
                continue
            if rng.random() < 0.12:
                opaque = self._opaque_pools[label]
                if opaque:
                    picks.append(rng.choice(opaque))
                    continue
            picks.append(rng.choice(pool))
        return picks

    # -- value synthesis -----------------------------------------------

    def make_value(self, label: Level3, rng: random.Random):
        """A plausible value for a key of the given category."""
        make = _VALUE_FACTORIES.get(label)
        if make is None:
            return rng.randint(0, 9999)
        return make(rng)


def _hex_id(rng: random.Random, length: int = 16) -> str:
    return "".join(rng.choice("0123456789abcdef") for _ in range(length))


def _uuid(rng: random.Random) -> str:
    raw = _hex_id(rng, 32)
    return f"{raw[:8]}-{raw[8:12]}-{raw[12:16]}-{raw[16:20]}-{raw[20:]}"


_FIRST_NAMES = ("alex", "sam", "jordan", "taylor", "casey", "riley", "devon")
_LAST_NAMES = ("smith", "garcia", "chen", "patel", "mueller", "rossi", "kim")
_CITIES = ("irvine", "seattle", "austin", "boston", "denver", "miami")
_COUNTRIES = ("US", "GB", "DE", "BR", "JP", "AU", "CA")
_LOCALES = ("en-US", "en-GB", "es-MX", "de-DE", "pt-BR", "ja-JP")
_OSES = ("Android 13", "Android 14", "Windows 11", "macOS 14.1", "iOS 17.0")
_MODELS = ("Pixel 6", "Pixel 7", "SM-G991B", "iPhone14,2", "generic_x86")
_EVENTS = ("app_open", "screen_view", "button_click", "video_play", "level_up",
           "quiz_complete", "lesson_finish", "purchase_view", "search", "share")
_SEGMENTS = ("casual_gamer", "language_learner", "k12_student", "video_binger",
             "creative_builder", "social_teen")

_VALUE_FACTORIES = {
    Level3.NAME: lambda rng: f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}",
    Level3.CONTACT_INFORMATION: lambda rng: f"{rng.choice(_FIRST_NAMES)}{rng.randint(1, 999)}@example.com",
    Level3.ALIASES: _uuid,
    Level3.REASONABLY_LINKABLE_PERSONAL_IDENTIFIERS: lambda rng: (
        f"{rng.randint(11, 223)}.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}"
    ),
    Level3.LOGIN_INFORMATION: lambda rng: _hex_id(rng, 40),
    Level3.CUSTOMER_NUMBERS: lambda rng: str(rng.randint(10**9, 10**10 - 1)),
    Level3.LINKED_PERSONAL_IDENTIFIERS: lambda rng: str(rng.randint(10**8, 10**9 - 1)),
    Level3.DEVICE_HARDWARE_IDENTIFIERS: lambda rng: _hex_id(rng, 16),
    Level3.DEVICE_SOFTWARE_IDENTIFIERS: _uuid,
    Level3.DEVICE_INFORMATION: lambda rng: rng.choice(
        (rng.choice(_OSES), rng.choice(_MODELS), f"{rng.choice((1080, 1440, 2340))}x{rng.choice((1920, 2560, 1080))}")
    ),
    Level3.AGE: lambda rng: rng.choice((str(rng.randint(8, 40)), f"{rng.randint(1984, 2015)}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}")),
    Level3.LANGUAGE: lambda rng: rng.choice(_LOCALES),
    Level3.GENDER_SEX: lambda rng: rng.choice(("m", "f", "x", "prefer_not")),
    Level3.PRECISE_GEOLOCATION: lambda rng: round(rng.uniform(-90, 90), 6),
    Level3.COARSE_GEOLOCATION: lambda rng: rng.choice(_CITIES + _COUNTRIES),
    Level3.LOCATION_TIME: lambda rng: 1_697_000_000 + rng.randint(0, 4_000_000),
    Level3.COMMUNICATIONS: lambda rng: "hello there!",
    Level3.CONTACTS: lambda rng: [f"friend_{rng.randint(1, 50)}" for _ in range(2)],
    Level3.INTERNET_ACTIVITY: lambda rng: rng.choice(("spanish verbs", "parkour map", "lofi mix")),
    Level3.NETWORK_CONNECTION_INFORMATION: lambda rng: rng.choice(
        (rng.randint(5, 400), "wifi", "h2", "TLSv1.3", "4g", f"{rng.randint(10, 900)}ms")
    ),
    Level3.SENSOR_DATA: lambda rng: [round(rng.uniform(-1, 1), 3) for _ in range(3)],
    Level3.PRODUCTS_AND_ADVERTISING: lambda rng: rng.choice(
        (f"cmp_{rng.randint(100, 999)}", round(rng.uniform(0.01, 4.5), 2), f"unit_{rng.randint(1, 60)}")
    ),
    Level3.APP_OR_SERVICE_USAGE: lambda rng: rng.choice(
        (rng.choice(_EVENTS), rng.randint(1, 3600), f"scr_{rng.randint(1, 40)}")
    ),
    Level3.ACCOUNT_SETTINGS: lambda rng: rng.choice((True, False, "granted", "denied")),
    Level3.SERVICE_INFORMATION: lambda rng: rng.choice(
        (f"{rng.randint(1, 9)}.{rng.randint(0, 20)}.{rng.randint(0, 9)}", "prod", "web", "android")
    ),
    Level3.INFERENCES: lambda rng: rng.choice(_SEGMENTS),
    Level3.PERSONAL_HISTORY: lambda rng: rng.choice(("grade_7", "high_school", "college")),
    Level3.BIOMETRIC_INFORMATION: lambda rng: _hex_id(rng, 24),
}
